package provenance

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// This file tests the store's two bulk and concurrent entry points: a
// checkpoint load (LoadSortedRuns) must be indistinguishable from the
// Add-built store it was cut from, and concurrent writers and readers must
// only ever see dense, growing prefixes of the log.

// compareStores fails the test unless a and b agree on every query the
// store exposes, probing disjointness and predicate queries with the
// recorded instances and random conjunctions.
func compareStores(t *testing.T, r *rand.Rand, s *pipeline.Space, a, b *Store, ins []pipeline.Instance) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) {
		t.Fatalf("Records: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Seq != rb[i].Seq || ra[i].Outcome != rb[i].Outcome ||
			ra[i].Source != rb[i].Source || !ra[i].Instance.Equal(rb[i].Instance) {
			t.Fatalf("record %d: %+v vs %+v", i, ra[i], rb[i])
		}
		if ra[i].Seq != i {
			t.Fatalf("record %d has seq %d", i, ra[i].Seq)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Len() != sb.Len() {
		t.Fatalf("Snapshot: %d vs %d", sa.Len(), sb.Len())
	}
	for i := 0; i < sa.Len(); i++ {
		if !sa.At(i).Instance.Equal(sb.At(i).Instance) {
			t.Fatalf("snapshot record %d diverges", i)
		}
	}
	asucc, afail := a.Outcomes()
	bsucc, bfail := b.Outcomes()
	if asucc != bsucc || afail != bfail {
		t.Fatalf("Outcomes: (%d,%d) vs (%d,%d)", asucc, afail, bsucc, bfail)
	}
	if !sameInstances(a.Failing(), b.Failing()) {
		t.Fatal("Failing diverges")
	}
	if !sameInstances(a.Succeeding(), b.Succeeding()) {
		t.Fatal("Succeeding diverges")
	}
	fa, oka := a.FirstFailing()
	fb, okb := b.FirstFailing()
	if oka != okb || (oka && !fa.Equal(fb)) {
		t.Fatalf("FirstFailing: (%v,%v) vs (%v,%v)", fa, oka, fb, okb)
	}
	for _, in := range ins {
		oa, ha := a.Lookup(in)
		ob, hb := b.Lookup(in)
		if oa != ob || ha != hb {
			t.Fatalf("Lookup(%v): (%v,%v) vs (%v,%v)", in, oa, ha, ob, hb)
		}
	}
	for probe := 0; probe < 12; probe++ {
		c := randomConjunction(r, s)
		as, af := a.CountSatisfying(c)
		bs, bf := b.CountSatisfying(c)
		if as != bs || af != bf {
			t.Fatalf("CountSatisfying(%v): (%d,%d) vs (%d,%d)", c, as, af, bs, bf)
		}
		ai, aok := a.AnySucceedingSatisfying(c)
		bi, bok := b.AnySucceedingSatisfying(c)
		if aok != bok || (aok && !ai.Equal(bi)) {
			t.Fatalf("AnySucceedingSatisfying(%v): (%v,%v) vs (%v,%v)", c, ai, aok, bi, bok)
		}
	}
	if len(ins) == 0 {
		return
	}
	for probe := 0; probe < 6; probe++ {
		ref := ins[r.Intn(len(ins))]
		if !sameInstances(a.DisjointSucceeding(ref), b.DisjointSucceeding(ref)) {
			t.Fatalf("DisjointSucceeding(%v) diverges", ref)
		}
		ma, oka := a.MostDifferentSucceeding(ref)
		mb, okb := b.MostDifferentSucceeding(ref)
		if oka != okb || (oka && !ma.Equal(mb)) {
			t.Fatalf("MostDifferentSucceeding(%v): (%v,%v) vs (%v,%v)", ref, ma, oka, mb, okb)
		}
		k := 1 + r.Intn(5)
		if !sameInstances(a.MutuallyDisjointSucceeding(ref, k),
			b.MutuallyDisjointSucceeding(ref, k)) {
			t.Fatalf("MutuallyDisjointSucceeding(%v, %d) diverges", ref, k)
		}
	}
}

// buildSortedRuns renders a store's records as hash-sorted checkpoint
// tiers — the same (hash, seq) ordering internal/provlog encodes — so the
// tests can exercise LoadSortedRuns without a disk round trip. The log is
// cut into the given number of contiguous sequence ranges at random
// points, one tier each, returned newest (highest range) first.
func buildSortedRuns(r *rand.Rand, st *Store, tiers int) ([]Record, []SortedRun) {
	recs := st.Records()
	cuts := []int{0, len(recs)}
	for i := 1; i < tiers; i++ {
		cuts = append(cuts, r.Intn(len(recs)+1))
	}
	sort.Ints(cuts)
	var runs []SortedRun
	for i := len(cuts) - 1; i > 0; i-- {
		lo, hi := cuts[i-1], cuts[i]
		seqs := make([]int32, 0, hi-lo)
		for s := lo; s < hi; s++ {
			seqs = append(seqs, int32(s))
		}
		sort.Slice(seqs, func(a, b int) bool {
			ha, hb := recs[seqs[a]].Instance.Hash(), recs[seqs[b]].Instance.Hash()
			if ha != hb {
				return ha < hb
			}
			return seqs[a] < seqs[b]
		})
		hashes := make([]uint64, len(seqs))
		for j, s := range seqs {
			hashes[j] = recs[s].Instance.Hash()
		}
		runs = append(runs, SortedRun{Hashes: hashes, Seqs: seqs})
	}
	return recs, runs
}

// TestLoadSortedRunsMatchBuiltStore is the checkpoint-resume differential:
// a store that adopts multi-tier sorted runs must answer every query
// exactly like the Add-built store the runs were cut from, before and
// after post-load Adds. Odd trials append before the first query, so the
// deferred base index merges in front of incrementally indexed records;
// even trials build it first.
func TestLoadSortedRunsMatchBuiltStore(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		s := randomProvenanceSpace(t, r)
		built := NewStore(s)
		ins := fillRandomStore(t, r, s, built, 10+r.Intn(300))
		if len(ins) == 0 {
			continue
		}
		recs, runs := buildSortedRuns(r, built, 1+r.Intn(4))
		loaded := NewStore(s)
		if err := loaded.LoadSortedRuns(recs, runs); err != nil {
			t.Fatalf("trial %d: LoadSortedRuns (%d tiers): %v", trial, len(runs), err)
		}
		// Probe identity before any query so the base tiers serve the
		// lookups index-free.
		for _, in := range ins {
			want, _ := built.Lookup(in)
			got, ok := loaded.Lookup(in)
			if !ok || got != want {
				t.Fatalf("trial %d: base-tier Lookup = (%v,%v), want %v", trial, got, ok, want)
			}
		}
		addBoth := func() {
			extra := fillRandomStore(t, r, s, built, 5)
			for _, in := range extra {
				out, _ := built.Lookup(in)
				if err := loaded.Add(in, out, "rand"); err != nil {
					t.Fatal(err)
				}
			}
			ins = append(ins, extra...)
		}
		if trial%2 == 1 {
			addBoth()
		}
		compareStores(t, r, s, built, loaded, ins)
		addBoth()
		compareStores(t, r, s, built, loaded, ins)
	}
}

// concurrentSpace is the 8x8x4 space the concurrency tests enumerate.
func concurrentSpace() *pipeline.Space {
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: ordDomain(0, 1, 2, 3, 4, 5, 6, 7)},
		pipeline.Parameter{Name: "b", Kind: pipeline.Ordinal, Domain: ordDomain(0, 1, 2, 3, 4, 5, 6, 7)},
		pipeline.Parameter{Name: "c", Kind: pipeline.Ordinal, Domain: ordDomain(0, 1, 2, 3)},
	)
}

// concurrentInstance is the x-th instance of concurrentSpace in mixed-radix
// order, and concurrentOutcome its outcome.
func concurrentInstance(s *pipeline.Space, x int) pipeline.Instance {
	return pipeline.MustInstance(s,
		pipeline.Ord(float64(x%8)), pipeline.Ord(float64((x/8)%8)), pipeline.Ord(float64(x/64)))
}

func concurrentOutcome(x int) pipeline.Outcome {
	if x%3 == 0 {
		return pipeline.Fail
	}
	return pipeline.Succeed
}

// TestConcurrentAdds hammers the store from parallel writers and checks
// the committed log is exactly the union of their disjoint inputs with
// dense sequences — no lost records, no duplicates, no gaps.
func TestConcurrentAdds(t *testing.T) {
	s := concurrentSpace()
	const workers, per = 8, 32
	st := NewStore(s)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				x := w*per + k
				if err := st.Add(concurrentInstance(s, x), concurrentOutcome(x), "w"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", st.Len(), workers*per)
	}
	recs := st.Records()
	if len(recs) != workers*per {
		t.Fatalf("Records = %d, want %d", len(recs), workers*per)
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	succ, fail := st.Outcomes()
	if succ+fail != workers*per {
		t.Fatalf("Outcomes = %d+%d, want %d", succ, fail, workers*per)
	}
}

// orderedSink is a goroutine-safe Sink that checks records arrive in
// dense sequence order.
type orderedSink struct {
	mu   sync.Mutex
	next int
	err  error
}

func (s *orderedSink) Append(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if r.Seq != s.next && s.err == nil {
			s.err = fmt.Errorf("sink saw seq %d, want %d", r.Seq, s.next)
		}
		s.next = r.Seq + 1
	}
	return nil
}

// TestConcurrentAddBatches drives concurrent batches over overlapping
// instance sets and checks the store ends dense and complete, with each
// instance committed exactly once. staged=true attaches a sink, so every
// batch is appended whole before it commits, and the sink checks the
// appends arrive in sequence order; staged=false is the same staged write
// with no sink.
func TestConcurrentAddBatches(t *testing.T) {
	for _, staged := range []bool{false, true} {
		t.Run(fmt.Sprintf("staged=%v", staged), func(t *testing.T) {
			s := concurrentSpace()
			const workers = 6
			st := NewStore(s)
			sink := &orderedSink{}
			if staged {
				st.SetSink(sink)
			}
			all := make([]Entry, 64)
			for x := range all {
				all[x] = Entry{Instance: concurrentInstance(s, x), Outcome: concurrentOutcome(x), Source: "b"}
			}
			var wg sync.WaitGroup
			var total atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each worker submits an overlapping window of the
					// shared set, in a few batches.
					lo := (w * 8) % len(all)
					for lo < len(all) {
						hi := min(lo+8+w, len(all))
						added, err := st.AddBatch(append([]Entry(nil), all[lo:hi]...))
						if err != nil {
							t.Error(err)
							return
						}
						total.Add(int64(added))
						lo = hi
					}
				}(w)
			}
			wg.Wait()
			if sink.err != nil {
				t.Fatal(sink.err)
			}
			// The windows cover the whole set (worker 0 submits everything),
			// each instance commits exactly once across all batches, and
			// the duplicate skips keep added counts complementary.
			if total.Load() != int64(len(all)) {
				t.Fatalf("workers added %d records in total, want %d", total.Load(), len(all))
			}
			recs := st.Records()
			for i, r := range recs {
				if r.Seq != i {
					t.Fatalf("record %d has seq %d", i, r.Seq)
				}
			}
			if st.Len() != len(recs) || len(recs) != len(all) {
				t.Fatalf("Len = %d, Records = %d, want %d", st.Len(), len(recs), len(all))
			}
			for _, e := range all {
				out, ok := st.Lookup(e.Instance)
				if !ok || out != e.Outcome {
					t.Fatalf("Lookup(%v) = (%v,%v), want %v", e.Instance, out, ok, e.Outcome)
				}
			}
		})
	}
}

// TestEnsureIndexedRacesLookups is the -race stress for the
// checkpoint-resume fast path: a store freshly loaded from sorted runs
// serves concurrent identity Lookups while the first history queries
// ensure the deferred base index is built, under the write lock. The store
// is one lock over one set of indices, the single shard the subtest names.
func TestEnsureIndexedRacesLookups(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	t.Run("shards=1", func(t *testing.T) {
		s := randomProvenanceSpace(t, r)
		built := NewStore(s)
		ins := fillRandomStore(t, r, s, built, 64)
		if len(ins) == 0 {
			t.Skip("space too small to seed")
		}
		recs, runs := buildSortedRuns(r, built, 2)
		st := NewStore(s)
		if err := st.LoadSortedRuns(recs, runs); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for rounds := 0; rounds < 200; rounds++ {
					in := ins[(w*131+rounds)%len(ins)]
					if _, ok := st.Lookup(in); !ok {
						t.Errorf("lookup missed a loaded instance")
						return
					}
				}
			}(w)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// First queries: these race the deferred index build.
				succ, fail := st.Outcomes()
				if succ+fail != len(recs) {
					t.Errorf("Outcomes = %d+%d, want %d", succ, fail, len(recs))
				}
				st.CountSatisfying(predicate.Conjunction{})
				st.DisjointSucceeding(ins[0])
				if _, ok := st.FirstFailing(); ok {
					st.Failing()
				}
			}()
		}
		close(start)
		wg.Wait()
	})
}

// TestSnapshotConsistencySingleWriterStress is the -race stress for the
// read path under a live writer: one writer appends a deterministic
// history, mixing single Adds and AddBatches, while readers query. Every
// Snapshot must be a dense sequence prefix of that history, Outcomes and
// Failing must describe exactly some prefix, and no count a reader
// observes may decrease.
func TestSnapshotConsistencySingleWriterStress(t *testing.T) {
	s := concurrentSpace()
	const total = 256
	ins := make([]pipeline.Instance, total)
	outs := make([]pipeline.Outcome, total)
	var failing []pipeline.Instance
	prefSucc := make([]int, total+1) // succeeding records among the first h
	conj := predicate.Conjunction{predicate.T("a", predicate.Le, pipeline.Ord(3))}
	satTotal := 0
	for x := 0; x < total; x++ {
		ins[x], outs[x] = concurrentInstance(s, x), concurrentOutcome(x)
		prefSucc[x+1] = prefSucc[x]
		if outs[x] == pipeline.Succeed {
			prefSucc[x+1]++
		} else {
			failing = append(failing, ins[x])
		}
		if conj.Satisfied(ins[x]) {
			satTotal++
		}
	}

	st := NewStore(s)
	start := make(chan struct{})
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		<-start
		for x := 0; x < total; {
			if x%3 == 0 {
				hi := min(x+1+x%5, total)
				entries := make([]Entry, 0, hi-x)
				for ; x < hi; x++ {
					entries = append(entries, Entry{Instance: ins[x], Outcome: outs[x], Source: "w"})
				}
				if _, err := st.AddBatch(entries); err != nil {
					t.Error(err)
					return
				}
				continue
			}
			if err := st.Add(ins[x], outs[x], "w"); err != nil {
				t.Error(err)
				return
			}
			x++
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var lastLen, lastSucc, lastFail, lastSat int
			for finished := false; !finished; {
				finished = done.Load() // one more pass after the writer stops
				sn := st.Snapshot()
				n := sn.Len()
				if n < lastLen || n > total {
					t.Errorf("snapshot length went from %d to %d", lastLen, n)
					return
				}
				lastLen = n
				for i := 0; i < n; i++ {
					if r := sn.At(i); r.Seq != i || r.Outcome != outs[i] || !r.Instance.Equal(ins[i]) {
						t.Errorf("snapshot of %d records: record %d is %+v, want seq %d of the history", n, i, r, i)
						return
					}
				}
				succ, fail := st.Outcomes()
				h := succ + fail
				if h < n || h > total || succ != prefSucc[h] || succ < lastSucc || fail < lastFail {
					t.Errorf("Outcomes = (%d,%d) after (%d,%d), not a growing prefix of the history", succ, fail, lastSucc, lastFail)
					return
				}
				lastSucc, lastFail = succ, fail
				if fs := st.Failing(); len(fs) < fail || !sameInstances(fs, failing[:len(fs)]) {
					t.Errorf("Failing holds %d instances after Outcomes counted %d, or is not a prefix of the history's", len(fs), fail)
					return
				}
				cs, cf := st.CountSatisfying(conj)
				if sat := cs + cf; sat < lastSat || sat > satTotal {
					t.Errorf("CountSatisfying went from %d to %d (of %d)", lastSat, sat, satTotal)
					return
				}
				lastSat = cs + cf
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if st.Len() != total {
		t.Fatalf("Len = %d, want %d", st.Len(), total)
	}
	if succ, fail := st.Outcomes(); succ != prefSucc[total] || fail != len(failing) {
		t.Fatalf("final Outcomes = (%d,%d), want (%d,%d)", succ, fail, prefSucc[total], len(failing))
	}
}
