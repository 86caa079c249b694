package provenance

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// This file tests the store's concurrent entry points: concurrent writers
// and readers must only ever see dense, growing prefixes of the log.

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
