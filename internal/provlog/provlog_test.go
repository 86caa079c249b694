package provlog

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
)

// testSpace declares the reference space; every test constructs it fresh,
// the way a resumed process would.
func testSpace(t testing.TB) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "alpha", Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(0.1), pipeline.Ord(0.5), pipeline.Ord(0.9)}},
		pipeline.Parameter{Name: "solver", Kind: pipeline.Categorical,
			Domain: []pipeline.Value{pipeline.Cat("lbfgs"), pipeline.Cat("saga")}},
		pipeline.Parameter{Name: "depth", Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(3), pipeline.Ord(4)}},
	)
}

// testRecords yields n distinct instances over s, cycling outcomes and
// sources; every 5th instance carries an out-of-domain value so dictionary
// frames keep appearing mid-log, and one instance carries NaN.
func testRecords(t testing.TB, s *pipeline.Space, n int) ([]pipeline.Instance, []pipeline.Outcome, []string) {
	t.Helper()
	sources := []string{"executor", "seed", "csv"}
	var ins []pipeline.Instance
	var outs []pipeline.Outcome
	var srcs []string
	alphas := s.Domain("alpha")
	solvers := s.Domain("solver")
	depths := s.Domain("depth")
	for i := 0; len(ins) < n; i++ {
		a := alphas[i%len(alphas)]
		sol := solvers[(i/len(alphas))%len(solvers)]
		d := depths[(i/(len(alphas)*len(solvers)))%len(depths)]
		switch {
		case i%5 == 4:
			a = pipeline.Ord(10 + float64(i)) // out-of-domain ordinal
		case i == 7:
			sol = pipeline.Cat("newton") // out-of-domain categorical
		case i == 11:
			a = pipeline.Ord(math.NaN())
		}
		in, err := pipeline.NewInstance(s, []pipeline.Value{a, sol, d})
		if err != nil {
			t.Fatal(err)
		}
		dup := false
		for _, prev := range ins {
			if prev.Equal(in) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out := pipeline.Succeed
		if i%3 == 0 {
			out = pipeline.Fail
		}
		ins = append(ins, in)
		outs = append(outs, out)
		srcs = append(srcs, sources[i%len(sources)])
	}
	return ins, outs, srcs
}

// fillStore adds the records through the store (and therefore through the
// attached sink).
func fillStore(t *testing.T, st *provenance.Store, ins []pipeline.Instance, outs []pipeline.Outcome, srcs []string) {
	t.Helper()
	for i := range ins {
		if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
			t.Fatalf("Add record %d: %v", i, err)
		}
	}
}

// withSegmentSize sets the log's rotation threshold in bytes, clamped to
// a header plus one small write, so a test can force rotation with a few
// records.
func withSegmentSize(n int64) Option {
	return func(l *Log) { l.segSize = max(n, headerSize+64) }
}

// segmentCount returns the log's number of segments, counting the active
// one.
func segmentCount(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.segIndex) + 1
}

// assertStoreMatches verifies the store holds exactly the given records in
// execution order.
func assertStoreMatches(t *testing.T, st *provenance.Store, ins []pipeline.Instance, outs []pipeline.Outcome, srcs []string) {
	t.Helper()
	if st.Len() != len(ins) {
		t.Fatalf("store holds %d records, want %d", st.Len(), len(ins))
	}
	sn := st.Snapshot()
	for i := range ins {
		r := sn.At(i)
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Instance.Key() != ins[i].Key() || r.Outcome != outs[i] || r.Source != srcs[i] {
			t.Fatalf("record %d = {%v %v %q}, want {%v %v %q}",
				i, r.Instance, r.Outcome, r.Source, ins[i], outs[i], srcs[i])
		}
	}
}

// assertStoresEqual compares two stores rebuilt over independently
// constructed spaces: the records (order, identity, outcome, source), the
// interning dictionaries, and the behavior of every indexed query surface.
func assertStoresEqual(t *testing.T, a, b *provenance.Store) {
	t.Helper()
	sa, sb := a.Space(), b.Space()
	if sa.Len() != sb.Len() {
		t.Fatalf("spaces have %d and %d parameters", sa.Len(), sb.Len())
	}
	if a.Len() != b.Len() {
		t.Fatalf("stores hold %d and %d records", a.Len(), b.Len())
	}
	// Dictionaries: same codes assigned to the same values per parameter.
	for i := 0; i < sa.Len(); i++ {
		if sa.NumCodes(i) != sb.NumCodes(i) {
			t.Fatalf("parameter %d has %d and %d interned codes", i, sa.NumCodes(i), sb.NumCodes(i))
		}
		for c := 0; c < sa.NumCodes(i); c++ {
			va, vb := sa.InternedValue(i, uint32(c)), sb.InternedValue(i, uint32(c))
			if va.Kind() != vb.Kind() || va.String() != vb.String() {
				t.Fatalf("parameter %d code %d interned as %v and %v", i, c, va, vb)
			}
		}
	}
	// Records in execution order, plus Lookup through the identity index.
	na, nb := a.Snapshot(), b.Snapshot()
	for i := 0; i < na.Len(); i++ {
		ra, rb := na.At(i), nb.At(i)
		if ra.Seq != rb.Seq || ra.Instance.Key() != rb.Instance.Key() ||
			ra.Outcome != rb.Outcome || ra.Source != rb.Source {
			t.Fatalf("record %d = {%d %v %v %q} and {%d %v %v %q}",
				i, ra.Seq, ra.Instance, ra.Outcome, ra.Source,
				rb.Seq, rb.Instance, rb.Outcome, rb.Source)
		}
		if out, ok := b.Lookup(rb.Instance); !ok || out != ra.Outcome {
			t.Fatalf("record %d: Lookup = %v, %v", i, out, ok)
		}
	}
	// Outcome and posting indices through their query surfaces.
	asucc, afail := a.Outcomes()
	bsucc, bfail := b.Outcomes()
	if asucc != bsucc || afail != bfail {
		t.Fatalf("outcomes (%d, %d) and (%d, %d)", asucc, afail, bsucc, bfail)
	}
	keys := func(ins []pipeline.Instance) string {
		parts := make([]string, len(ins))
		for i, in := range ins {
			parts[i] = in.Key()
		}
		return strings.Join(parts, "\n")
	}
	if keys(a.Failing()) != keys(b.Failing()) {
		t.Fatal("failing sets differ")
	}
	if keys(a.Succeeding()) != keys(b.Succeeding()) {
		t.Fatal("succeeding sets differ")
	}
	if fa, oka := a.FirstFailing(); oka {
		fb, okb := b.FirstFailing()
		if !okb || fa.Key() != fb.Key() {
			t.Fatal("first failing differs")
		}
		if keys(a.MutuallyDisjointSucceeding(fa, 4)) != keys(b.MutuallyDisjointSucceeding(fb, 4)) {
			t.Fatal("mutually disjoint succeeding runs differ")
		}
	}
	for i := 0; i < sa.Len(); i++ {
		for c := 0; c < sa.NumCodes(i); c++ {
			cond := predicate.Conjunction{predicate.T(sa.At(i).Name, predicate.Eq, sa.InternedValue(i, uint32(c)))}
			as, af := a.CountSatisfying(cond)
			bs, bf := b.CountSatisfying(cond)
			if as != bs || af != bf {
				t.Fatalf("CountSatisfying(%v) = (%d, %d) and (%d, %d)", cond, as, af, bs, bf)
			}
		}
	}
}

func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 20)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, st, got)
}

// TestReplayedInstanceRendersAlike logs instances built from -0, whose
// parameter interned +0 first, and from a non-canonical NaN payload, then
// replays the log into the same space: each replayed copy is Equal to the
// logged instance and has its Key and String.
func TestReplayedInstanceRendersAlike(t *testing.T) {
	dir := t.TempDir()
	s := pipeline.MustSpace(
		pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(0), pipeline.Ord(1)}},
		pipeline.Parameter{Name: "y", Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(1), pipeline.Ord(2)}},
	)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins := []pipeline.Instance{
		pipeline.MustInstance(s, pipeline.Ord(math.Copysign(0, -1)), pipeline.Ord(1)),
		pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(math.Float64frombits(0x7ff8000000000001))),
	}
	fillStore(t, st, ins, []pipeline.Outcome{pipeline.Fail, pipeline.Succeed}, []string{"executor", "executor"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	sn := got.Snapshot()
	for i, want := range ins {
		in := sn.At(i).Instance
		if !in.Equal(want) {
			t.Fatalf("record %d replayed as %v, logged %v", i, in, want)
		}
		if in.Key() != want.Key() || in.String() != want.String() {
			t.Fatalf("record %d: replayed copy renders %q / %s, logged instance %q / %s",
				i, in.Key(), in, want.Key(), want)
		}
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(1)) // clamps to the minimum
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 24)
	fillStore(t, st, ins, outs, srcs)
	if segmentCount(l) < 3 {
		t.Fatalf("segments = %d, want rotation to produce several", segmentCount(l))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, st, got)
}

// TestReopenResume closes a log mid-history and reopens it: the rebuilt
// store must hold the prefix, appends must continue (reusing source ids and
// dictionary state), and a final replay must see everything.
func TestReopenResume(t *testing.T) {
	dir := t.TempDir()
	s1 := testSpace(t)
	ins, outs, srcs := testRecords(t, s1, 24)
	l1, st1, err := Open(dir, s1, withSegmentSize(200))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st1, ins[:10], outs[:10], srcs[:10])
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := testSpace(t)
	l2, st2, err := Open(dir, s2, withSegmentSize(200))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 10 {
		t.Fatalf("resumed store has %d records, want 10", st2.Len())
	}
	// Re-map the remaining records onto the fresh space and keep appending.
	for i := 10; i < len(ins); i++ {
		vals := make([]pipeline.Value, ins[i].Len())
		for j := range vals {
			vals[j] = ins[i].Value(j)
		}
		in, err := pipeline.NewInstance(s2, vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := st2.Add(in, outs[i], srcs[i]); err != nil {
			t.Fatalf("resumed Add %d: %v", i, err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(ins) {
		t.Fatalf("replayed %d records, want %d", got.Len(), len(ins))
	}
	assertStoresEqual(t, st2, got)
}

func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 4)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	other := pipeline.MustSpace(
		pipeline.Parameter{Name: "alpha", Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(0.1), pipeline.Ord(0.5)}},
		pipeline.Parameter{Name: "solver", Kind: pipeline.Categorical,
			Domain: []pipeline.Value{pipeline.Cat("lbfgs"), pipeline.Cat("saga")}},
		pipeline.Parameter{Name: "depth", Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(3), pipeline.Ord(4)}},
	)
	if _, err := Replay(dir, other); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Replay with a different space = %v, want fingerprint error", err)
	}
	if _, _, err := Open(dir, other); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Open with a different space = %v, want fingerprint error", err)
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, _, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ins, outs, srcs := testRecords(t, s, 1)
	rec := provenance.Record{Seq: 5, Instance: ins[0], Outcome: outs[0], Source: srcs[0]}
	if err := l.Append([]provenance.Record{rec}); err == nil {
		t.Fatal("out-of-order append succeeded")
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 1)
	if err := st.Add(ins[0], outs[0], srcs[0]); err == nil {
		t.Fatal("Add through a closed log succeeded")
	}
	if st.Len() != 0 {
		t.Fatalf("store committed %d records past a closed sink", st.Len())
	}
}

func TestReplayEmptyDir(t *testing.T) {
	if _, err := Replay(t.TempDir(), testSpace(t)); err == nil {
		t.Fatal("Replay of an empty directory succeeded")
	}
}

func TestExistsAndReadSpace(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("Exists on empty dir")
	}
	s := testSpace(t)
	l, _, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists after Open = false")
	}
	got, err := ReadSpace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != s.Fingerprint() {
		t.Fatalf("ReadSpace fingerprint %016x, want %016x", got.Fingerprint(), s.Fingerprint())
	}
}

// TestAppendRejectsOversizedFields proves the write path refuses what the
// scanner could not read back: an oversized source string or categorical
// label must fail the Add (leaving memory and disk consistent) instead of
// poisoning the log.
func TestAppendRejectsOversizedFields(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, _ := testRecords(t, s, 3)
	huge := strings.Repeat("s", 1<<16)
	if err := st.Add(ins[0], outs[0], huge); err == nil {
		t.Fatal("Add with a 64KiB source succeeded")
	}
	hugeVal, err := pipeline.NewInstance(s, []pipeline.Value{
		ins[1].Value(0), pipeline.Cat(strings.Repeat("v", maxBlob+1)), ins[1].Value(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(hugeVal, outs[1], "executor"); err == nil {
		t.Fatal("Add with an oversized categorical value succeeded")
	}
	// The log must remain usable and consistent after both rejections.
	if err := st.Add(ins[2], outs[2], "executor"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("replayed %d records, want 1", got.Len())
	}
}

// TestOpenExcludesSecondWriter proves the single-writer lock: a second
// Open of a live log must fail rather than interleave appends, and the
// lock must release on Close.
func TestOpenExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, testSpace(t)); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open of a live log = %v, want lock error", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedSegmentCorruption flips one byte inside a sealed (non-final)
// segment: recovery must refuse rather than silently drop records that
// valid later segments still reference.
func TestSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(150))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 24)
	fillStore(t, st, ins, outs, srcs)
	if segmentCount(l) < 2 {
		t.Fatalf("need rotation for this test, got %d segments", segmentCount(l))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(dir, "wal-000000.seg")
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+5] ^= 0xff
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, testSpace(t)); err == nil {
		t.Fatal("Replay of a corrupt sealed segment succeeded")
	}
	if _, _, err := Open(dir, testSpace(t)); err == nil {
		t.Fatal("Open of a corrupt sealed segment succeeded")
	}
}
