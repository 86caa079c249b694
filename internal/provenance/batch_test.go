package provenance

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

// recordingSink captures every batch appended to it; fail makes the next
// Append fail, recording nothing.
type recordingSink struct {
	batches [][]Record
	fail    bool
}

func (s *recordingSink) Append(recs []Record) error {
	if s.fail {
		s.fail = false
		return fmt.Errorf("sink down")
	}
	s.batches = append(s.batches, append([]Record(nil), recs...))
	return nil
}

func batchEntries(t *testing.T, s *pipeline.Space, n int) []Entry {
	t.Helper()
	entries := make([]Entry, n)
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
		entries[i] = Entry{Instance: in, Outcome: out, Source: "batch"}
	}
	return entries
}

// TestAddBatchCommitsAndSkipsDuplicates covers the core semantics: one
// multi-record sink append, duplicate skipping against the store and
// within the batch, and index integrity afterwards.
func TestAddBatchCommitsAndSkipsDuplicates(t *testing.T) {
	s := testSpace(t)
	sink := &recordingSink{}
	st := NewStore(s)
	st.SetSink(sink)
	entries := batchEntries(t, s, 6)
	if err := st.Add(entries[0].Instance, entries[0].Outcome, "seed"); err != nil {
		t.Fatal(err)
	}
	withDups := append(append([]Entry(nil), entries...), entries[1], entries[3])
	added, err := st.AddBatch(withDups)
	if err != nil {
		t.Fatal(err)
	}
	if added != 5 { // 6 fresh minus the one already recorded; intra-batch dups skip
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
	entries := batchEntries(t, s, 6)
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
