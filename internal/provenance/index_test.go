package provenance

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// This file differentially tests the indexed history queries against
// reference implementations that scan the log linearly — the semantics the
// store had before the columnar indices. Any divergence on randomized
// stores is a bug in the index layer.

func naiveCountSatisfying(st *Store, c predicate.Conjunction) (succeed, fail int) {
	for _, r := range st.Records() {
		if !c.Satisfied(r.Instance) {
			continue
		}
		switch r.Outcome {
		case pipeline.Succeed:
			succeed++
		case pipeline.Fail:
			fail++
		}
	}
	return
}

func naiveAnySucceedingSatisfying(st *Store, c predicate.Conjunction) (pipeline.Instance, bool) {
	for _, r := range st.Records() {
		if r.Outcome == pipeline.Succeed && c.Satisfied(r.Instance) {
			return r.Instance, true
		}
	}
	return pipeline.Instance{}, false
}

func naiveDisjointSucceeding(st *Store, ref pipeline.Instance) []pipeline.Instance {
	var out []pipeline.Instance
	for _, r := range st.Records() {
		if r.Outcome == pipeline.Succeed && r.Instance.DisjointFrom(ref) {
			out = append(out, r.Instance)
		}
	}
	return out
}

func naiveMutuallyDisjointSucceeding(st *Store, ref pipeline.Instance, k int) []pipeline.Instance {
	var chosen []pipeline.Instance
	used := make(map[string]bool)
	for _, r := range st.Records() {
		if len(chosen) >= k {
			return chosen
		}
		if r.Outcome != pipeline.Succeed || !r.Instance.DisjointFrom(ref) {
			continue
		}
		ok := true
		for _, c := range chosen {
			if !r.Instance.DisjointFrom(c) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, r.Instance)
			used[r.Instance.Key()] = true
		}
	}
	type cand struct {
		in   pipeline.Instance
		diff int
		seq  int
	}
	var cands []cand
	for _, r := range st.Records() {
		if r.Outcome != pipeline.Succeed || used[r.Instance.Key()] {
			continue
		}
		cands = append(cands, cand{r.Instance, r.Instance.DiffCount(ref), r.Seq})
	}
	for len(chosen) < k && len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].diff > cands[best].diff ||
				(cands[i].diff == cands[best].diff && cands[i].seq < cands[best].seq) {
				best = i
			}
		}
		chosen = append(chosen, cands[best].in)
		cands = append(cands[:best], cands[best+1:]...)
	}
	return chosen
}

func naiveOutcomes(st *Store) (succeed, fail int) {
	return naiveCountSatisfying(st, nil)
}

func naiveByOutcome(st *Store, out pipeline.Outcome) []pipeline.Instance {
	var res []pipeline.Instance
	for _, r := range st.Records() {
		if r.Outcome == out {
			res = append(res, r.Instance)
		}
	}
	return res
}

func naiveFirstFailing(st *Store) (pipeline.Instance, bool) {
	if fs := naiveByOutcome(st, pipeline.Fail); len(fs) > 0 {
		return fs[0], true
	}
	return pipeline.Instance{}, false
}

func naiveMostDifferentSucceeding(st *Store, ref pipeline.Instance) (pipeline.Instance, bool) {
	best, bestDiff := pipeline.Instance{}, -1
	for _, in := range naiveByOutcome(st, pipeline.Succeed) {
		if d := in.DiffCount(ref); d > bestDiff {
			best, bestDiff = in, d
		}
	}
	return best, bestDiff >= 0
}

func naiveLookup(st *Store, in pipeline.Instance) (pipeline.Outcome, bool) {
	for _, r := range st.Records() {
		if r.Instance.Equal(in) {
			return r.Outcome, true
		}
	}
	return pipeline.OutcomeUnknown, false
}

// randomProvenanceSpace builds a small randomized mixed-kind space of 2–5
// parameters: from a dozen instances to a few thousand, so stores over the
// larger ones span several 64-record bitset words.
func randomProvenanceSpace(t *testing.T, r *rand.Rand) *pipeline.Space {
	t.Helper()
	n := 2 + r.Intn(4)
	params := make([]pipeline.Parameter, n)
	for i := range params {
		name := string(rune('a' + i))
		if r.Intn(2) == 0 {
			dom := make([]pipeline.Value, 2+r.Intn(6))
			for j := range dom {
				dom[j] = pipeline.Ord(float64(j))
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Ordinal, Domain: dom}
		} else {
			labels := []string{"u", "v", "w", "x", "y"}
			dom := make([]pipeline.Value, 2+r.Intn(4))
			for j := range dom {
				dom[j] = pipeline.Cat(labels[j])
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Categorical, Domain: dom}
		}
	}
	return pipeline.MustSpace(params...)
}

// fillRandomStore adds up to n random distinct instances (random outcomes)
// and returns the recorded instances.
func fillRandomStore(t *testing.T, r *rand.Rand, s *pipeline.Space, st *Store, n int) []pipeline.Instance {
	t.Helper()
	var ins []pipeline.Instance
	for attempts := 0; len(ins) < n && attempts < n*20; attempts++ {
		in := s.RandomInstance(r)
		out := pipeline.Succeed
		if r.Intn(2) == 0 {
			out = pipeline.Fail
		}
		if err := st.Add(in, out, "rand"); err != nil {
			continue // duplicate
		}
		ins = append(ins, in)
	}
	return ins
}

// randomConjunction draws 0-3 random triples, mixing comparators and
// on/off-domain values.
func randomConjunction(r *rand.Rand, s *pipeline.Space) predicate.Conjunction {
	var c predicate.Conjunction
	for k := r.Intn(4); k > 0; k-- {
		i := r.Intn(s.Len())
		p := s.At(i)
		var v pipeline.Value
		if p.Kind == pipeline.Ordinal {
			v = pipeline.Ord(float64(r.Intn(6)) - 1) // may be off-domain
		} else {
			v = p.Domain[r.Intn(len(p.Domain))]
		}
		cmp := predicate.Eq
		switch r.Intn(4) {
		case 1:
			cmp = predicate.Neq
		case 2:
			if p.Kind == pipeline.Ordinal {
				cmp = predicate.Le
			}
		case 3:
			if p.Kind == pipeline.Ordinal {
				cmp = predicate.Gt
			}
		}
		c = append(c, predicate.T(p.Name, cmp, v))
	}
	return c
}

// randomOutcome draws Succeed or Fail, and now and then an inconclusive
// quorum tie, which joins neither outcome index.
func randomOutcome(r *rand.Rand) pipeline.Outcome {
	switch r.Intn(8) {
	case 0:
		return pipeline.OutcomeInconclusive
	case 1, 2, 3:
		return pipeline.Fail
	}
	return pipeline.Succeed
}

// fillMixedHistory drives a randomized history into st — a mix of single
// Adds and AddBatches of 1–12 and 1–200 records, so one write can span
// several 64-record bitset words, with duplicates against history
// sprinkled in — and returns the recorded instances in recording order.
// A small batch that draws an instance twice must be rejected whole; it
// then commits without its repeats.
func fillMixedHistory(t *testing.T, r *rand.Rand, s *pipeline.Space, st *Store) []pipeline.Instance {
	t.Helper()
	var ins []pipeline.Instance
	for step := 3 + r.Intn(6); step > 0; step-- {
		before := st.Len()
		var added int
		var err error
		switch r.Intn(3) {
		case 0:
			var batch, once []Record
			listed := make(map[string]bool)
			for j := 1 + r.Intn(12); j > 0; j-- {
				rec := Record{Instance: s.RandomInstance(r), Outcome: randomOutcome(r), Source: fmt.Sprintf("s%d", step)}
				batch = append(batch, rec)
				if !listed[rec.Instance.Key()] {
					listed[rec.Instance.Key()] = true
					once = append(once, rec)
				}
			}
			if len(once) < len(batch) {
				if n, err := st.AddBatch(batch); err == nil || n != 0 || st.Len() != before {
					t.Fatalf("AddBatch of a batch with repeats = %d, %v, store grew by %d; want 0 and an error", n, err, st.Len()-before)
				}
			}
			added, err = st.AddBatch(once)
		case 1:
			// A history lists each instance once; drawn repeats are dropped.
			var hist []Record
			listed := make(map[string]bool)
			for j := 1 + r.Intn(200); j > 0; j-- {
				in := s.RandomInstance(r)
				if !listed[in.Key()] {
					listed[in.Key()] = true
					hist = append(hist, Record{Instance: in, Outcome: randomOutcome(r), Source: "history"})
				}
			}
			added, err = st.AddBatch(hist)
		default:
			for draws := 1 + r.Intn(8); draws > 0; draws-- {
				in := s.RandomInstance(r)
				_, dup := st.Lookup(in)
				if err := st.Add(in, randomOutcome(r), "add"); (err == nil) == dup {
					t.Fatalf("Add(%v) = %v with the instance recorded: %v", in, err, dup)
				}
				if !dup {
					added++
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != before+added {
			t.Fatalf("step reported %d added, store grew by %d", added, st.Len()-before)
		}
		for _, rec := range st.Records()[before:] {
			ins = append(ins, rec.Instance)
		}
	}
	return ins
}

func sameInstances(a, b []pipeline.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestIndexedQueriesMatchLinearScans drives randomized histories of Adds
// and AddBatches and requires every indexed query to match its
// linear-scan reference over the log.
func TestIndexedQueriesMatchLinearScans(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		s := randomProvenanceSpace(t, r)
		st := NewStore(s)
		ins := fillMixedHistory(t, r, s, st)
		if len(ins) == 0 {
			continue
		}
		if st.Len() != len(ins) {
			t.Fatalf("trial %d: Len = %d, recorded %d", trial, st.Len(), len(ins))
		}

		gs, gf := st.Outcomes()
		if ws, wf := naiveOutcomes(st); gs != ws || gf != wf {
			t.Fatalf("trial %d: Outcomes = (%d,%d), linear scan (%d,%d)", trial, gs, gf, ws, wf)
		}
		if !sameInstances(st.Failing(), naiveByOutcome(st, pipeline.Fail)) {
			t.Fatalf("trial %d: Failing diverges from linear scan", trial)
		}
		if !sameInstances(st.Succeeding(), naiveByOutcome(st, pipeline.Succeed)) {
			t.Fatalf("trial %d: Succeeding diverges from linear scan", trial)
		}
		gin, gok := st.FirstFailing()
		if win, wok := naiveFirstFailing(st); gok != wok || (gok && !gin.Equal(win)) {
			t.Fatalf("trial %d: FirstFailing = (%v,%v), linear scan (%v,%v)", trial, gin, gok, win, wok)
		}
		for probe := 0; probe < 10; probe++ {
			in := ins[r.Intn(len(ins))]
			if probe%2 == 1 {
				in = s.RandomInstance(r) // recorded or not
			}
			gout, gok := st.Lookup(in)
			if wout, wok := naiveLookup(st, in); gout != wout || gok != wok {
				t.Fatalf("trial %d: Lookup(%v) = (%v,%v), linear scan (%v,%v)", trial, in, gout, gok, wout, wok)
			}
		}

		for probe := 0; probe < 10; probe++ {
			c := randomConjunction(r, s)
			gs, gf := st.CountSatisfying(c)
			ws, wf := naiveCountSatisfying(st, c)
			if gs != ws || gf != wf {
				t.Fatalf("trial %d: CountSatisfying(%v) = (%d,%d), linear scan (%d,%d)\nspace: %v",
					trial, c, gs, gf, ws, wf, s)
			}
			gin, gok := st.AnySucceedingSatisfying(c)
			win, wok := naiveAnySucceedingSatisfying(st, c)
			if gok != wok || (gok && !gin.Equal(win)) {
				t.Fatalf("trial %d: AnySucceedingSatisfying(%v) = (%v,%v), linear scan (%v,%v)",
					trial, c, gin, gok, win, wok)
			}
		}

		for probe := 0; probe < 5; probe++ {
			ref := ins[r.Intn(len(ins))]
			if !sameInstances(st.DisjointSucceeding(ref), naiveDisjointSucceeding(st, ref)) {
				t.Fatalf("trial %d: DisjointSucceeding(%v) diverges from linear scan", trial, ref)
			}
			gin, gok := st.MostDifferentSucceeding(ref)
			if win, wok := naiveMostDifferentSucceeding(st, ref); gok != wok || (gok && !gin.Equal(win)) {
				t.Fatalf("trial %d: MostDifferentSucceeding(%v) = (%v,%v), linear scan (%v,%v)",
					trial, ref, gin, gok, win, wok)
			}
			// Pairwise disjoint runs differ on every parameter, so there are
			// no more of them than the smallest domain has values: k runs
			// from 0 past that count into padding, and once to every
			// succeeding run, which pads through every tie.
			most := len(s.At(0).Domain)
			for i := 1; i < s.Len(); i++ {
				most = min(most, len(s.At(i).Domain))
			}
			ks := []int{len(st.Succeeding()) + 1}
			for k := 0; k <= most+1; k++ {
				ks = append(ks, k)
			}
			for _, k := range ks {
				if !sameInstances(st.MutuallyDisjointSucceeding(ref, k),
					naiveMutuallyDisjointSucceeding(st, ref, k)) {
					t.Fatalf("trial %d: MutuallyDisjointSucceeding(%v, %d) diverges", trial, ref, k)
				}
			}
		}
	}
}

// wideHistory is the 5,000-record history the allocation pins write: 8
// ordinal parameters of 16 values each and random outcomes, so every
// posting bitset spans about 79 words.
func wideHistory(t *testing.T) (*pipeline.Space, []Record) {
	t.Helper()
	params := make([]pipeline.Parameter, 8)
	for i := range params {
		dom := make([]pipeline.Value, 16)
		for j := range dom {
			dom[j] = pipeline.Ord(float64(j))
		}
		params[i] = pipeline.Parameter{Name: string(rune('a' + i)), Kind: pipeline.Ordinal, Domain: dom}
	}
	s := pipeline.MustSpace(params...)
	r := rand.New(rand.NewSource(5))
	listed := make(map[string]bool)
	var recs []Record
	for len(recs) < 5000 {
		in := s.RandomInstance(r)
		if !listed[in.Key()] {
			listed[in.Key()] = true
			recs = append(recs, Record{Instance: in, Outcome: randomOutcome(r), Source: "history"})
		}
	}
	return s, recs
}

// TestAddHistoryAllocatesEachBitsetOnce pins the one index pass per write:
// AddBatch of a history into an empty store allocates each outcome and
// posting bitset it touches once, at the write's last word, however many
// words that is. Writing 5,000 records instead of 64 then adds only the
// growth of the position lists and identity maps, fewer allocations than
// the bitsets touched; growing a bitset word by word reallocated each of
// them about log2(79) more times.
func TestAddHistoryAllocatesEachBitsetOnce(t *testing.T) {
	s, recs := wideHistory(t)
	allocs := func(recs []Record) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := NewStore(s).AddBatch(recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	st := NewStore(s)
	if _, err := st.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	touched := 0
	for _, bits := range append([]bitset{st.succBits, st.failBits}, slices.Concat(st.posting...)...) {
		if len(bits) > 0 {
			touched++
		}
	}
	if extra := allocs(recs) - allocs(recs[:64]); extra >= float64(touched) {
		t.Fatalf("AddBatch of %d records makes %.0f more allocations than of 64, want fewer than the %d bitsets it touches",
			len(recs), extra, touched)
	}
}

var disjointSink []pipeline.Instance

// TestMutuallyDisjointSucceedingAllocatesPerWord pins the good-run query to
// the bitset algebra: on a 5,000-record store it allocates its candidate
// mask, bytes in proportion to the log's 64-record words, and its result,
// never a copy of the succeeding instances. k = 30 exceeds the 15
// mutually disjoint runs 16-value parameters allow, so it pads.
func TestMutuallyDisjointSucceedingAllocatesPerWord(t *testing.T) {
	s, recs := wideHistory(t)
	st := NewStore(s)
	if _, err := st.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	ref, _ := st.FirstFailing()
	words := (st.Len() + 63) / 64
	for _, k := range []int{4, 30} {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			disjointSink = st.MutuallyDisjointSucceeding(ref, k)
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		budget := 2*8*words + 4*k*int(unsafe.Sizeof(pipeline.Instance{})) + 512
		if perCall > uint64(budget) {
			t.Fatalf("MutuallyDisjointSucceeding(ref, %d) allocates %d bytes over %d records, want at most %d",
				k, perCall, st.Len(), budget)
		}
		if len(disjointSink) != k {
			t.Fatalf("MutuallyDisjointSucceeding(ref, %d) returned %d runs", k, len(disjointSink))
		}
	}
}

// TestIndexedQueriesCoverExpandedUniverse checks the posting lists keep up
// when instances carry values outside the declared domains.
func TestIndexedQueriesCoverExpandedUniverse(t *testing.T) {
	s := pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2)},
		pipeline.Parameter{Name: "b", Kind: pipeline.Categorical, Domain: catDomain("x", "y")},
	)
	st := NewStore(s)
	in := pipeline.MustInstance(s, pipeline.Ord(7), pipeline.Cat("zz")) // both off-domain
	if err := st.Add(in, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	c := predicate.And(predicate.T("a", predicate.Gt, pipeline.Ord(2)),
		predicate.T("b", predicate.Eq, pipeline.Cat("zz")))
	if succ, fail := st.CountSatisfying(c); succ != 0 || fail != 1 {
		t.Fatalf("CountSatisfying over expanded universe = (%d,%d), want (0,1)", succ, fail)
	}
	if in2, ok := st.AnySucceedingSatisfying(c); ok {
		t.Fatalf("AnySucceedingSatisfying found %v among failures", in2)
	}
}

// TestSnapshotIsStable checks a snapshot is unaffected by later Adds.
func TestSnapshotIsStable(t *testing.T) {
	s := testSpace(t)
	st := seedStore(t, s)
	sn := st.Snapshot()
	n := sn.Len()
	if err := st.Add(pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("x")), pipeline.Fail, "later"); err != nil {
		t.Fatal(err)
	}
	if sn.Len() != n {
		t.Fatalf("snapshot length changed from %d to %d after Add", n, sn.Len())
	}
	for i := 0; i < n; i++ {
		if sn.At(i).Seq != i {
			t.Fatalf("snapshot record %d has seq %d", i, sn.At(i).Seq)
		}
	}
	if got := st.Snapshot().Len(); got != n+1 {
		t.Fatalf("fresh snapshot has %d records, want %d", got, n+1)
	}
}
