package provlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
)

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
		if keys(a.DisjointSucceeding(fa)) != keys(b.DisjointSucceeding(fb)) {
			t.Fatal("disjoint succeeding sets differ")
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

// buildCheckpointed fills a log with n records through the store and runs
// an explicit checkpoint, returning the recorded history.
func buildCheckpointed(t *testing.T, dir string, n int, opts ...Option) ([]pipeline.Instance, []pipeline.Outcome, []string) {
	t.Helper()
	s := testSpace(t)
	l, st, err := Open(dir, s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, n)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ins, outs, srcs
}

// prefixTables returns the dictionary state the WAL had reached after the
// snapshot's first w records: the WAL frames every code up to the largest
// one a record references, immediately before that record, so per
// parameter it is the codes 0..max(code), and the sources in first-use
// order.
func prefixTables(sn provenance.Snapshot, p, w int) (persisted []int, sources []string) {
	persisted = make([]int, p)
	for i := 0; i < w; i++ {
		rec := sn.At(i)
		for j := 0; j < p; j++ {
			persisted[j] = max(persisted[j], int(rec.Instance.Code(j))+1)
		}
		if !slices.Contains(sources, rec.Source) {
			sources = append(sources, rec.Source)
		}
	}
	return persisted, sources
}

// publishTiers checkpoints the store's records by hand as the tier stack
// cut at the given watermarks — [0, ws[0]), [ws[0], ws[1]), … — the way a
// compaction that died before collecting would have left them: every tier
// written and named by a freshly published MANIFEST, over an untouched
// WAL. It returns the newest tier's path.
func publishTiers(t *testing.T, dir string, st *provenance.Store, ws ...int) string {
	t.Helper()
	s := st.Space()
	sn := st.Snapshot()
	var tiers []tierRef
	first := 0
	for _, w := range ws {
		persisted, sources := prefixTables(sn, s.Len(), w)
		buf, err := encodeTierRange(s, s.Fingerprint(), sn, first, w, persisted, sources)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeTierFile(dir, buf, first, w); err != nil {
			t.Fatal(err)
		}
		ref := tierRef{name: tierName(first, w), firstSeq: first, watermark: w, count: w - first, crc: tierCRC(buf)}
		tiers = append([]tierRef{ref}, tiers...)
		first = w
	}
	if err := publishManifest(dir, s.Fingerprint(), tiers); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, tiers[0].name)
}

// loadedWatermark returns the watermark of the checkpoint replayDir loads
// from dir: 0 when it replays the WAL alone.
func loadedWatermark(t *testing.T, dir string, s *pipeline.Space) int {
	t.Helper()
	rs, _, _, err := replayDir(dir, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rs.ckptSeq
}

// manifestTiers returns the MANIFEST's tiers as "firstSeq-watermark"
// strings, newest first, and fails unless the directory holds exactly the
// tier files they name.
func manifestTiers(t *testing.T, dir string, s *pipeline.Space) []string {
	t.Helper()
	tiers, err := readManifest(dir, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	var got, names []string
	for _, tier := range tiers {
		got = append(got, fmt.Sprintf("%d-%d", tier.firstSeq, tier.watermark))
		names = append(names, tier.name)
	}
	files, err := listTierFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	slices.Sort(files)
	if !slices.Equal(names, files) {
		t.Fatalf("directory holds tier files %v, MANIFEST names %v", files, names)
	}
	return got
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ins, outs, srcs := buildCheckpointed(t, dir, 20)

	// The sealed history must be folded: one tier, and only the
	// post-rotation active segment left.
	if got := manifestTiers(t, dir, testSpace(t)); !slices.Equal(got, []string{"0-20"}) {
		t.Fatalf("tiers = %v, want [0-20]", got)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after compaction = %d, want 1 (the empty active segment)", len(segs))
	}

	// Open must rebuild the identical store from checkpoint + empty suffix
	// and keep accepting appends that survive a further reopen.
	s2 := testSpace(t)
	l2, st2, err := Open(dir, s2)
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, st2, ins, outs, srcs)
	more, mouts, msrcs := testRecords(t, s2, len(ins)+5)
	for i := len(ins); i < len(more); i++ {
		if err := st2.Add(more[i], mouts[i], msrcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, got, more, mouts, msrcs)
}

func TestCheckpointSuffixReplay(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 40)
	fillStore(t, st, ins[:25], outs[:25], srcs[:25])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The suffix keeps growing after the checkpoint, across several more
	// small segments.
	fillStore(t, st, ins[25:], outs[25:], srcs[25:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2, err := Open(dir, testSpace(t), withSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertStoreMatches(t, st2, ins, outs, srcs)
}

// TestCheckpointPartialCoverage exercises a watermark that falls inside a
// live segment (the shape a checkpoint taken under concurrent appends, or
// a crash before collection, leaves): the fully-written WAL stays, a
// checkpoint covers only a prefix, and Open must load it and skip-replay
// the covered region without duplicating records.
func TestCheckpointPartialCoverage(t *testing.T) {
	for _, w := range []int{1, 7, 19, 20} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			dir := t.TempDir()
			s := testSpace(t)
			l, st, err := Open(dir, s)
			if err != nil {
				t.Fatal(err)
			}
			ins, outs, srcs := testRecords(t, s, 20)
			fillStore(t, st, ins, outs, srcs)
			publishTiers(t, dir, st, w)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := loadedWatermark(t, dir, testSpace(t)); got != w {
				t.Fatalf("loaded checkpoint at %d, want %d", got, w)
			}

			l2, st2, err := Open(dir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, st2, ins, outs, srcs)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointDifferential drives randomized histories through both
// resume paths — checkpoint + suffix against a pure WAL replay of the same
// bytes — and requires identical stores: records, dictionaries, and every
// indexed query surface.
func TestCheckpointDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			n := 10 + r.Intn(60)
			segSize := int64(128 + r.Intn(2048))
			w := 1 + r.Intn(n)

			dir := t.TempDir()
			s := testSpace(t)
			l, st, err := Open(dir, s, withSegmentSize(segSize))
			if err != nil {
				t.Fatal(err)
			}
			ins, outs, srcs := testRecords(t, s, n)
			fillStore(t, st, ins, outs, srcs)
			publishTiers(t, dir, st, w)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := loadedWatermark(t, dir, testSpace(t)); got != w {
				t.Fatalf("loaded checkpoint at %d, want %d", got, w)
			}

			// The WAL-only twin: same segments, checkpoint removed.
			walDir := t.TempDir()
			copyDir(t, dir, walDir, func(name string) bool {
				return !strings.HasSuffix(name, ".tier") && name != manifestName
			})

			viaCkpt, err := Replay(dir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			viaWAL, err := Replay(walDir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, viaCkpt, ins, outs, srcs)
			assertStoresEqual(t, viaWAL, viaCkpt)
		})
	}
}

// copyDir copies the regular files of src for which keep returns true.
func copyDir(t *testing.T, src, dst string, keep func(string) bool) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !keep(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionCrashTorture kills a compaction at every stage — after the
// temp file is durable, after the rename, and mid-collection — and
// verifies Open recovers the exact same store each time, keeps accepting
// appends, and that the next compaction finishes the interrupted cleanup.
func TestCompactionCrashTorture(t *testing.T) {
	stages := []string{"tmp-written", "renamed", "gc"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := testSpace(t)
			// Small segments so compaction has several sealed segments to
			// collect, making the "gc" stage abort mid-way meaningful.
			l, st, err := Open(dir, s, withSegmentSize(256))
			if err != nil {
				t.Fatal(err)
			}
			ins, outs, srcs := testRecords(t, s, 30)
			fillStore(t, st, ins, outs, srcs)

			injected := fmt.Errorf("injected crash at %s", stage)
			ckptTestHook = func(got string) error {
				if got == stage {
					return injected
				}
				return nil
			}
			err = l.Checkpoint()
			ckptTestHook = nil
			if err == nil || !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("Checkpoint = %v, want the injected crash", err)
			}
			// Simulate the kill: abandon the handle without a clean Close
			// beyond releasing the flock so the test can reopen.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Open must recover the full history regardless of where the
			// compaction died.
			l2, st2, err := Open(dir, testSpace(t), withSegmentSize(256))
			if err != nil {
				t.Fatalf("Open after crash at %s: %v", stage, err)
			}
			assertStoreMatches(t, st2, ins, outs, srcs)

			// The session keeps going: more records, and a clean compaction
			// that finishes whatever the crashed one left behind.
			more, mouts, msrcs := testRecords(t, st2.Space(), len(ins)+8)
			for i := len(ins); i < len(more); i++ {
				if err := st2.Add(more[i], mouts[i], msrcs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := l2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := manifestTiers(t, dir, testSpace(t)), fmt.Sprintf("0-%d", len(more)); !slices.Equal(got, []string{want}) {
				t.Fatalf("tiers after recovery compaction = %v, want [%s]", got, want)
			}
			got, err := Replay(dir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, got, more, mouts, msrcs)
		})
	}
}

// TestCheckpointCorruptFallsBack flips and truncates the bytes of a
// checkpoint the MANIFEST names: as long as the full WAL survives, Open
// must detect the damage via the trailing CRC and rebuild from the
// segments alone.
func TestCheckpointCorruptFallsBack(t *testing.T) {
	build := func(t *testing.T) (string, []pipeline.Instance, []pipeline.Outcome, []string, string) {
		dir := t.TempDir()
		s := testSpace(t)
		l, st, err := Open(dir, s)
		if err != nil {
			t.Fatal(err)
		}
		ins, outs, srcs := testRecords(t, s, 15)
		fillStore(t, st, ins, outs, srcs)
		ck := publishTiers(t, dir, st, len(ins))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := loadedWatermark(t, dir, testSpace(t)); got != len(ins) {
			t.Fatalf("intact checkpoint loaded at %d, want %d", got, len(ins))
		}
		return dir, ins, outs, srcs, ck
	}
	reopen := func(t *testing.T, dir string, ins []pipeline.Instance, outs []pipeline.Outcome, srcs []string) {
		if got := loadedWatermark(t, dir, testSpace(t)); got != 0 {
			t.Fatalf("corrupt checkpoint loaded at %d", got)
		}
		l, st, err := Open(dir, testSpace(t))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		assertStoreMatches(t, st, ins, outs, srcs)
	}

	t.Run("bitflip", func(t *testing.T) {
		dir, ins, outs, srcs, ck := build(t)
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(ck, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, ins, outs, srcs)
	})

	t.Run("truncated", func(t *testing.T) {
		dir, ins, outs, srcs, ck := build(t)
		fi, err := os.Stat(ck)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(ck, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, ins, outs, srcs)
	})

	// With the covered segments already collected, a corrupt checkpoint is
	// unrecoverable data loss and Open must say so rather than resurrect a
	// partial history.
	t.Run("collected", func(t *testing.T) {
		dir := t.TempDir()
		buildCheckpointed(t, dir, 15)
		ck := filepath.Join(dir, tierName(0, 15))
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(ck, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, testSpace(t)); err == nil {
			t.Fatal("Open succeeded over a corrupt checkpoint with a collected WAL")
		}
	})
}

// TestCheckpointLostTail simulates a machine crash without fsync: the
// checkpoint reached disk but the OS dropped the WAL tail it covers. The
// checkpoint is authoritative — Open rebuilds everything below the
// watermark, abandons the stale tail, and appends re-anchor cleanly.
func TestCheckpointLostTail(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 20)
	fillStore(t, st, ins, outs, srcs)
	publishTiers(t, dir, st, len(ins))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop most of the WAL: only the header and a sliver survive.
	seg := filepath.Join(dir, "wal-000000.seg")
	if err := os.Truncate(seg, headerSize+10); err != nil {
		t.Fatal(err)
	}
	if got := loadedWatermark(t, dir, testSpace(t)); got != len(ins) {
		t.Fatalf("loaded checkpoint at %d, want %d", got, len(ins))
	}

	l2, st2, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, st2, ins, outs, srcs)
	more, mouts, msrcs := testRecords(t, st2.Space(), len(ins)+6)
	for i := len(ins); i < len(more); i++ {
		if err := st2.Add(more[i], mouts[i], msrcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, got, more, mouts, msrcs)
}

// TestCheckpointNoop covers the degenerate compactions: an empty log, and
// a repeat with no new records, neither of which may write a new file.
func TestCheckpointNoop(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if names, _ := listTierFiles(dir); len(names) != 0 {
		t.Fatalf("empty-log checkpoint wrote %v", names)
	}
	ins, outs, srcs := testRecords(t, s, 5)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := manifestTiers(t, dir, s); !slices.Equal(got, []string{"0-5"}) {
		t.Fatalf("tiers = %v, want exactly [0-5]", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a closed log succeeded")
	}
}

// TestAutoCompactPolicy drives the record-count trigger: background
// compactions must appear on their own, supersede each other, and leave a
// directory that reopens to the full history.
func TestAutoCompactPolicy(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(256), WithCompactEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 40)
	fillStore(t, st, ins, outs, srcs)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := readManifest(dir, s.Fingerprint()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st2, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertStoreMatches(t, st2, ins, outs, srcs)
}

// TestCheckpointConcurrentAppends compacts while writers keep appending
// through the store; every record must survive into the reopened store.
func TestCheckpointConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(512))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 60)
	const writers = 4
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := w; i < len(ins); i += writers {
				if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	go func() {
		for i := 0; i < 3; i++ {
			if err := l.Checkpoint(); err != nil {
				errc <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < writers+1; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st2.Len() != len(ins) {
		t.Fatalf("reopened store holds %d records, want %d", st2.Len(), len(ins))
	}
	for i := range ins {
		// Rebuild the instance over the reopened space for the probe.
		vals := make([]pipeline.Value, ins[i].Len())
		for j := range vals {
			vals[j] = ins[i].Value(j)
		}
		in, err := pipeline.NewInstance(st2.Space(), vals)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := st2.Lookup(in); !ok || out != outs[i] {
			t.Fatalf("record %d: Lookup = %v, %v, want %v", i, out, ok, outs[i])
		}
	}
}
