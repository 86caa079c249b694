package exec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

func TestTelemetryCounters(t *testing.T) {
	s := testSpace(t)
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	tel := NewTelemetry(reg, telemetry.NewJournal(&buf))
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s),
		WithWorkers(2), WithBudget(10), WithTelemetry(tel))
	ctx := context.Background()

	in1 := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	in2 := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2))

	if _, err := ex.Evaluate(ctx, in1); err != nil { // miss + trial
		t.Fatal(err)
	}
	if _, err := ex.Evaluate(ctx, in1); err != nil { // hit
		t.Fatal(err)
	}
	// Batch: in1 memoized, in2 new, in2 again is an intra-set dup.
	res := ex.EvaluateBatch(ctx, []pipeline.Instance{in1, in2, in2})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch result %d: %v", i, r.Err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["exec_memo_hits"]; got != 2 {
		t.Errorf("memo hits = %d, want 2", got)
	}
	if got := snap.Counters["exec_memo_misses"]; got != 2 {
		t.Errorf("memo misses = %d, want 2", got)
	}
	if got := snap.Counters["exec_dedup_drops"]; got != 1 {
		t.Errorf("dedup drops = %d, want 1", got)
	}
	if got := snap.Counters["exec_oracle_trials"]; got != 2 {
		t.Errorf("oracle trials = %d, want 2", got)
	}
	if got := snap.Gauges["exec_budget_spent"]; got != 2 {
		t.Errorf("budget spent = %d, want 2", got)
	}
	if got := snap.Gauges["exec_budget_remaining"]; got != 8 {
		t.Errorf("budget remaining = %d, want 8", got)
	}
	h := snap.Histograms["exec_oracle_latency_ns"]
	if h.Count != snap.Counters["exec_oracle_trials"] {
		t.Errorf("latency histogram count %d != trial counter %d", h.Count, snap.Counters["exec_oracle_trials"])
	}

	// Journal: one trial_start/trial_end pair per oracle run, one
	// batch_dispatch per set — the Evaluate miss is a set of one.
	counts := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("journal line not JSON: %v: %q", err, sc.Text())
		}
		counts[m["ev"].(string)]++
	}
	if counts["trial_start"] != 2 || counts["trial_end"] != 2 {
		t.Errorf("journal trials = %v, want 2 starts + 2 ends", counts)
	}
	if counts["batch_dispatch"] != 2 {
		t.Errorf("journal batch_dispatch = %d, want 2", counts["batch_dispatch"])
	}

	// Queue depth counts the dispatched instances no worker has taken: a
	// one-worker round of four reads 3, 2, 1, 0 from inside its oracle
	// calls, and 0 once the round returns.
	qreg := telemetry.NewRegistry()
	var depths []int64
	qex := New(OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		depths = append(depths, qreg.Snapshot().Gauges["exec_queue_depth"])
		return failIfA1(ctx, in)
	}), provenance.NewStore(s), WithTelemetry(NewTelemetry(qreg, nil)))
	var round []pipeline.Instance
	for b := 1.0; b <= 4; b++ {
		round = append(round, pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(b)))
	}
	qex.EvaluateBatch(ctx, round)
	if want := []int64{3, 2, 1, 0}; !slices.Equal(depths, want) {
		t.Errorf("queue depth seen by the oracle = %v, want %v", depths, want)
	}
	if got := qreg.Snapshot().Gauges["exec_queue_depth"]; got != 0 {
		t.Errorf("queue depth after the round = %d, want 0", got)
	}
}

func TestTelemetryUnboundedBudgetGauge(t *testing.T) {
	s := testSpace(t)
	reg := telemetry.NewRegistry()
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s),
		WithTelemetry(NewTelemetry(reg, nil)))
	in := pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(3))
	if _, err := ex.Evaluate(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["exec_budget_remaining"]; got != -1 {
		t.Errorf("unbounded budget gauge = %d, want -1 sentinel", got)
	}
	if got := snap.Gauges["exec_budget_spent"]; got != 1 {
		t.Errorf("budget spent = %d, want 1", got)
	}
}

// TestProvenanceRecordsGauge pins the store's record gauge: it reads the
// live record count after each write, the executor's and any other, and a
// journal-only telemetry registers nothing.
func TestProvenanceRecordsGauge(t *testing.T) {
	s := testSpace(t)
	st := provenance.NewStore(s)
	if err := st.Add(pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1)), pipeline.Fail, "history"); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ex := New(OracleFunc(failIfA1), st, WithTelemetry(NewTelemetry(reg, nil)))
	gauge := func(want int) {
		t.Helper()
		if got := reg.Snapshot().Gauges["provenance_records"]; got != int64(want) || want != st.Len() {
			t.Fatalf("record gauge = %d with %d records, want %d", got, st.Len(), want)
		}
	}
	gauge(1)
	ctx := context.Background()
	if _, err := ex.Evaluate(ctx, pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2))); err != nil {
		t.Fatal(err)
	}
	gauge(2)
	ex.EvaluateBatch(ctx, []pipeline.Instance{
		pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(1)),
		pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(2)),
		pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2)), // memoized
	})
	gauge(4)
	if err := st.Add(pipeline.MustInstance(s, pipeline.Ord(100), pipeline.Ord(1)), pipeline.Succeed, "test"); err != nil {
		t.Fatal(err)
	}
	gauge(5)

	var buf bytes.Buffer
	journalOnly := New(OracleFunc(failIfA1), st, WithTelemetry(NewTelemetry(nil, telemetry.NewJournal(&buf))))
	if _, err := journalOnly.Evaluate(ctx, pipeline.MustInstance(s, pipeline.Ord(4), pipeline.Ord(4))); err != nil {
		t.Fatal(err)
	}
}

func TestNewTelemetryNilNil(t *testing.T) {
	if NewTelemetry(nil, nil) != nil {
		t.Fatal("NewTelemetry(nil, nil) should return nil (uninstrumented)")
	}
	var tel *Telemetry
	tel.Decision()
	tel.TreeRegrow()
	tel.budget(1, 2, true)
	tel.batchDispatch(1, 1, 0, false)
}

// TestMemoizedNilTelemetryAllocFree pins the acceptance criterion that the
// uninstrumented memoized-lookup path stays allocation-free.
func TestMemoizedNilTelemetryAllocFree(t *testing.T) {
	s := testSpace(t)
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s))
	ctx := context.Background()
	in := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(1))
	if _, err := ex.Evaluate(ctx, in); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("memoized Evaluate (no telemetry) allocated %v/op", n)
	}
}

// TestEvaluateMissAllocs pins what a one-instance Evaluate miss allocates
// over an in-memory store with a no-op oracle: the set of one, its result
// slice, the dispatch list and the commit's entry slice. A round of one
// makes no dedupe map, counter, closure or WaitGroup. Twelve binary
// parameters keep the store's amortized index growth far below one
// allocation per miss.
func TestEvaluateMissAllocs(t *testing.T) {
	params := make([]pipeline.Parameter, 12)
	for i := range params {
		params[i] = pipeline.Parameter{Name: fmt.Sprintf("p%d", i), Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(0), pipeline.Ord(1)}}
	}
	s := pipeline.MustSpace(params...)
	var ins []pipeline.Instance
	s.Enumerate(func(in pipeline.Instance) bool {
		ins = append(ins, in)
		return true
	})
	ex := New(OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
		return pipeline.Fail, nil
	}), provenance.NewStore(s))
	ctx := context.Background()
	for _, in := range ins[:1024] {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	next := 1024
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := ex.Evaluate(ctx, ins[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n > 4 {
		t.Fatalf("Evaluate miss allocated %v/op, want at most 4", n)
	}
	if got := ex.Spent(); got != next {
		t.Fatalf("Spent = %d after %d misses", got, next)
	}
}

// TestMemoizedWithTelemetryAllocFree pins the instrumented memoized path:
// the counter increment is one atomic add, no allocation.
func TestMemoizedWithTelemetryAllocFree(t *testing.T) {
	s := testSpace(t)
	reg := telemetry.NewRegistry()
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s),
		WithTelemetry(NewTelemetry(reg, nil)))
	ctx := context.Background()
	in := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(1))
	if _, err := ex.Evaluate(ctx, in); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("memoized Evaluate (telemetry on) allocated %v/op", n)
	}
}
