package provenance

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

// recordingSink captures every batch appended to it; fail makes the next
// Append fail, recording nothing, and a positive failAt fails every Append
// made once failAt batches are recorded.
type recordingSink struct {
	batches [][]Record
	fail    bool
	failAt  int
}

func (s *recordingSink) Append(recs []Record) error {
	if s.fail || s.failAt > 0 && len(s.batches) == s.failAt {
		s.fail = false
		return fmt.Errorf("sink down")
	}
	s.batches = append(s.batches, append([]Record(nil), recs...))
	return nil
}

func batchRecords(t *testing.T, s *pipeline.Space, n int) []Record {
	t.Helper()
	entries := make([]Record, n)
	for i := range entries {
		in, err := pipeline.NewInstance(s, []pipeline.Value{
			pipeline.Ord(float64(100 + i)), pipeline.Cat("x"),
		})
		if err != nil {
			t.Fatal(err)
		}
		out := pipeline.Succeed
		if i%2 == 0 {
			out = pipeline.Fail
		}
		entries[i] = Record{Instance: in, Outcome: out, Source: "batch"}
	}
	return entries
}

// TestAddBatchCommitsAndSkipsDuplicates covers the core semantics: one
// multi-record sink append, records already in the store skipped, a batch
// that lists an instance twice rejected before anything is written, and
// index integrity afterwards.
func TestAddBatchCommitsAndSkipsDuplicates(t *testing.T) {
	s := testSpace(t)
	sink := &recordingSink{}
	st := NewStore(s)
	st.SetSink(sink)
	entries := batchRecords(t, s, 6)
	if err := st.Add(entries[0].Instance, entries[0].Outcome, "seed"); err != nil {
		t.Fatal(err)
	}
	withDups := append(append([]Record(nil), entries...), entries[1], entries[3])
	if added, err := st.AddBatch(withDups); err == nil || added != 0 {
		t.Fatalf("AddBatch of a batch listing instances twice = %d, %v; want 0 and an error", added, err)
	}
	if st.Len() != 1 || len(sink.batches) != 1 {
		t.Fatalf("rejected batch wrote: store has %d records, sink saw %d appends", st.Len(), len(sink.batches))
	}
	added, err := st.AddBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if added != 5 { // 6 fresh minus the one already recorded
		t.Fatalf("added = %d, want 5", added)
	}
	if st.Len() != 6 {
		t.Fatalf("store has %d records, want 6", st.Len())
	}
	if len(sink.batches) != 2 || len(sink.batches[1]) != 5 {
		t.Fatalf("sink saw batches %v, want the batch as one 5-record append", sink.batches)
	}
	for i, r := range st.Snapshot().Records() {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	for _, e := range entries {
		out, ok := st.Lookup(e.Instance)
		if !ok || out != e.Outcome {
			t.Fatalf("lookup %v = %v, %v", e.Instance, out, ok)
		}
	}
	succ, fail := st.Outcomes()
	if succ+fail != 6 {
		t.Fatalf("outcome indices count %d records", succ+fail)
	}
}

// TestSinkFailureCommitsNothing pins the write contract: a failing sink
// append makes Add and AddBatch return the error and commit nothing — no
// record, no index entry, no sequence number — and the next write
// succeeds, continuing the log densely.
func TestSinkFailureCommitsNothing(t *testing.T) {
	s := testSpace(t)
	sink := &recordingSink{}
	st := NewStore(s)
	st.SetSink(sink)
	entries := batchRecords(t, s, 6)
	if _, err := st.AddBatch(entries[:1]); err != nil {
		t.Fatal(err)
	}
	sink.fail = true
	if err := st.Add(entries[1].Instance, entries[1].Outcome, "one"); err == nil {
		t.Fatal("Add must surface the sink failure")
	}
	sink.fail = true
	if added, err := st.AddBatch(entries[1:4]); err == nil || added != 0 {
		t.Fatalf("AddBatch over a failing sink = %d, %v; want 0 and the error", added, err)
	}
	if st.Len() != 1 {
		t.Fatalf("failed writes committed: store has %d records", st.Len())
	}
	for _, e := range entries[1:4] {
		if _, ok := st.Lookup(e.Instance); ok {
			t.Fatalf("failed write left %v queryable", e.Instance)
		}
	}
	if succ, fail := st.Outcomes(); succ+fail != 1 {
		t.Fatalf("failed writes reached the outcome indices: %d+%d", succ, fail)
	}
	// The next writes succeed and continue the sequence without a gap.
	if err := st.Add(entries[1].Instance, entries[1].Outcome, "one"); err != nil {
		t.Fatal(err)
	}
	if added, err := st.AddBatch(entries[2:]); err != nil || added != 4 {
		t.Fatalf("AddBatch after the failure = %d, %v", added, err)
	}
	var appended []Record
	for _, b := range sink.batches {
		appended = append(appended, b...)
	}
	recs := st.Records()
	if len(recs) != 6 || len(appended) != 6 {
		t.Fatalf("store has %d records, sink saw %d; want 6 and 6", len(recs), len(appended))
	}
	for i, r := range recs {
		if r.Seq != i || appended[i].Seq != i || !appended[i].Instance.Equal(r.Instance) {
			t.Fatalf("record %d: store {seq %d %v}, sink {seq %d %v}", i, r.Seq, r.Instance, appended[i].Seq, appended[i].Instance)
		}
	}
}

// collidingInstances adopts n distinct instances of s that all carry the
// same identity hash. Space.AdoptInstances trusts the hashes it is given,
// so this forces the 64-bit collision the identity index must survive.
func collidingInstances(t *testing.T, s *pipeline.Space, n int) []pipeline.Instance {
	t.Helper()
	flat := make([]uint32, 0, n*s.Len())
	hashes := make([]uint64, n)
	for r := 0; r < n; r++ {
		for i := 0; i < s.Len(); i++ {
			flat = append(flat, uint32(r))
		}
		hashes[r] = 0x5eed
	}
	ins := make([]pipeline.Instance, n)
	if err := s.AdoptInstances(flat, hashes, func(r int, in pipeline.Instance) { ins[r] = in }); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if ins[r].Hash() != ins[0].Hash() || ins[r].Equal(ins[0]) {
			t.Fatalf("instances %v and %v do not collide", ins[0], ins[r])
		}
	}
	return ins
}

// TestHashCollisions drives distinct instances that share one 64-bit hash
// through every write path: each must commit and look up as itself, a
// committed one must be skipped and written once, and a batch that lists
// one twice, like a failed sink append, must unstage exactly the ones it
// staged, leaving a committed instance under the same hash in place.
func TestHashCollisions(t *testing.T) {
	s := testSpace(t)
	ins := collidingInstances(t, s, 3)
	outcomes := []pipeline.Outcome{pipeline.Fail, pipeline.Succeed, pipeline.Fail}
	entries := make([]Record, 0, len(ins))
	for i, in := range ins {
		entries = append(entries, Record{Instance: in, Outcome: outcomes[i], Source: "c"})
	}
	withRepeat := append(append([]Record(nil), entries...), entries[1])
	check := func(t *testing.T, st *Store) {
		t.Helper()
		if st.Len() != len(ins) {
			t.Fatalf("store has %d records, want %d", st.Len(), len(ins))
		}
		for i, in := range ins {
			if out, ok := st.Lookup(in); !ok || out != outcomes[i] {
				t.Fatalf("Lookup(%v) = %v, %v; want %v", in, out, ok, outcomes[i])
			}
		}
	}
	// unstaged checks that a failed write left only ins[:committed].
	unstaged := func(t *testing.T, st *Store, committed int) {
		t.Helper()
		if st.Len() != committed {
			t.Fatalf("failed write committed %d records", st.Len()-committed)
		}
		for i, in := range ins {
			if _, ok := st.Lookup(in); ok != (i < committed) {
				t.Fatalf("after the failed write, Lookup(%v) reports recorded = %v", in, ok)
			}
		}
	}

	t.Run("Add", func(t *testing.T) {
		st := NewStore(s)
		for i, in := range ins {
			if err := st.Add(in, outcomes[i], "c"); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Add(ins[2], outcomes[2], "c"); err == nil {
			t.Fatal("re-adding a colliding instance must fail")
		}
		check(t, st)
	})
	t.Run("AddBatch", func(t *testing.T) {
		st := NewStore(s)
		if added, err := st.AddBatch(withRepeat); err == nil || added != 0 {
			t.Fatalf("AddBatch listing %v twice = %d, %v; want 0 and an error", ins[1], added, err)
		}
		unstaged(t, st, 0)
		if added, err := st.AddBatch(entries); err != nil || added != len(ins) {
			t.Fatalf("AddBatch = %d, %v; want %d", added, err, len(ins))
		}
		check(t, st)
	})
	t.Run("sink AddBatch", func(t *testing.T) {
		st := NewStore(s)
		sink := &recordingSink{}
		st.SetSink(sink)
		if err := st.Add(ins[0], outcomes[0], "c"); err != nil {
			t.Fatal(err)
		}
		// Both failed writes stage the two instances colliding with the
		// committed one, and must unstage exactly them.
		sink.fail = true
		if _, err := st.AddBatch(entries); err == nil {
			t.Fatal("AddBatch must surface the sink failure")
		}
		unstaged(t, st, 1)
		if _, err := st.AddBatch(withRepeat); err == nil {
			t.Fatalf("AddBatch listing %v twice succeeded", ins[1])
		}
		unstaged(t, st, 1)
		if added, err := st.AddBatch(entries); err != nil || added != len(ins)-1 {
			t.Fatalf("AddBatch = %d, %v; want %d", added, err, len(ins)-1)
		}
		if len(sink.batches) != 2 || len(sink.batches[1]) != len(ins)-1 {
			t.Fatalf("sink saw batches %v, want the Add, then one append of %d records", sink.batches, len(ins)-1)
		}
		check(t, st)
	})
}

// TestAddHistory pins AddBatch's contract for a session's history: one
// sink append per historyBatch records it adds, records already in the
// store skipped, a repeated instance or an invalid record rejected over
// the whole batch before anything is written — including a repeat that
// spans two appends, and a repeat of a record the store holds — and a
// failed append committing the appends before it.
func TestAddHistory(t *testing.T) {
	s := pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: ordDomain(0)},
		pipeline.Parameter{Name: "b", Kind: pipeline.Ordinal, Domain: ordDomain(0)},
	)
	n := historyBatch + 5
	hist := make([]Record, n)
	for i := range hist {
		in := pipeline.MustInstance(s, pipeline.Ord(float64(i/128)), pipeline.Ord(float64(i%128)))
		out := pipeline.Succeed
		if i%2 == 1 {
			out = pipeline.Fail
		}
		hist[i] = Record{Instance: in, Outcome: out, Source: "log"}
	}

	bad := map[string][]Record{
		"repeat across appends": append(append([]Record(nil), hist...), hist[0]),
		"unknown outcome":       append(append([]Record(nil), hist...), Record{Instance: hist[1].Instance}),
		"foreign instance": append(append([]Record(nil), hist...),
			Record{Instance: pipeline.MustInstance(testSpace(t), pipeline.Ord(1), pipeline.Cat("x")), Outcome: pipeline.Fail}),
	}
	for name, recs := range bad {
		st := NewStore(s)
		sink := &recordingSink{}
		st.SetSink(sink)
		if _, err := st.AddBatch(recs); err == nil {
			t.Fatalf("%s: AddBatch accepted the history", name)
		}
		if st.Len() != 0 || len(sink.batches) != 0 {
			t.Fatalf("%s: rejected history wrote %d records in %d appends", name, st.Len(), len(sink.batches))
		}
	}

	st := NewStore(s)
	sink := &recordingSink{}
	st.SetSink(sink)
	if err := st.Add(hist[3].Instance, hist[3].Outcome, "earlier run"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch([]Record{hist[0], hist[3], hist[1], hist[3]}); err == nil {
		t.Fatal("AddBatch accepted a batch listing a recorded instance twice")
	}
	if st.Len() != 1 || len(sink.batches) != 1 {
		t.Fatalf("rejected batch wrote: store has %d records, sink saw %d appends", st.Len(), len(sink.batches))
	}
	added, err := st.AddBatch(hist)
	if err != nil || added != n-1 {
		t.Fatalf("AddBatch = %d, %v; want %d", added, err, n-1)
	}
	if len(sink.batches) != 3 || len(sink.batches[1]) != historyBatch || len(sink.batches[2]) != 4 {
		t.Fatalf("sink saw %d appends, want the earlier Add then %d and 4 records", len(sink.batches), historyBatch)
	}
	for i, r := range hist {
		if out, ok := st.Lookup(r.Instance); !ok || out != r.Outcome {
			t.Fatalf("history record %d: Lookup = %v, %v; want %v", i, out, ok, r.Outcome)
		}
	}
	if added, err := st.AddBatch(hist); err != nil || added != 0 || len(sink.batches) != 3 {
		t.Fatalf("re-adding the history = %d, %v with %d appends; want 0 and no write", added, err, len(sink.batches))
	}

	// A failed second append leaves the first append's records committed
	// and unstages the rest.
	st = NewStore(s)
	st.SetSink(&recordingSink{failAt: 1})
	added, err = st.AddBatch(hist)
	if err == nil || added != historyBatch || st.Len() != historyBatch {
		t.Fatalf("AddBatch failing its second append = %d, %v with %d records; want %d and the error", added, err, st.Len(), historyBatch)
	}
	if succ, fail := st.Outcomes(); succ+fail != historyBatch {
		t.Fatalf("outcome indices count %d records, want %d", succ+fail, historyBatch)
	}
	for i, r := range hist {
		if _, ok := st.Lookup(r.Instance); ok != (i < historyBatch) {
			t.Fatalf("after the failed second append, history record %d recorded = %v", i, ok)
		}
	}
}
