package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/provlog"
)

// TestEvaluateBatchDedupes submits a set mixing memoized hits, fresh
// instances, and intra-batch duplicates: every result must land in input
// order, the oracle must run once per distinct miss, and the whole round
// must commit.
func TestEvaluateBatchDedupes(t *testing.T) {
	s := testSpace(t)
	var calls atomic.Int32
	oracle := OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		calls.Add(1)
		return failIfA1(ctx, in)
	})
	ex := New(oracle, provenance.NewStore(s), WithWorkers(4))
	memo := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	if _, err := ex.Evaluate(context.Background(), memo); err != nil {
		t.Fatal(err)
	}
	fresh1 := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2))
	fresh2 := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(3))
	ins := []pipeline.Instance{memo, fresh1, fresh2, fresh1, memo}
	results := ex.EvaluateBatch(context.Background(), ins)
	if len(results) != len(ins) {
		t.Fatalf("results = %d", len(results))
	}
	wants := []pipeline.Outcome{pipeline.Fail, pipeline.Succeed, pipeline.Fail, pipeline.Succeed, pipeline.Fail}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if !r.Instance.Equal(ins[i]) {
			t.Fatalf("result %d out of order", i)
		}
		if r.Outcome != wants[i] {
			t.Fatalf("result %d = %v, want %v", i, r.Outcome, wants[i])
		}
	}
	if n := calls.Load(); n != 3 { // memo seeding + two distinct misses
		t.Fatalf("oracle called %d times, want 3", n)
	}
	if ex.Store().Len() != 3 {
		t.Fatalf("store has %d records, want 3", ex.Store().Len())
	}
	if ex.Spent() != 3 {
		t.Fatalf("Spent = %d, want 3", ex.Spent())
	}
}

// budgetPositions runs a 4-instance set against a budget of 2 and returns
// which positions got funded.
func budgetPositions(t *testing.T) [4]bool {
	t.Helper()
	s := testSpace(t)
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s), WithBudget(2), WithWorkers(4))
	var ins []pipeline.Instance
	for a := 1.0; a <= 4; a++ {
		ins = append(ins, pipeline.MustInstance(s, pipeline.Ord(a), pipeline.Ord(a)))
	}
	var funded [4]bool
	for i, r := range ex.EvaluateBatch(context.Background(), ins) {
		switch {
		case r.Err == nil:
			funded[i] = true
		case errors.Is(r.Err, ErrBudgetExhausted):
		default:
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
	return funded
}

// TestEvaluateSetBudgetDeterministic asserts the documented contract:
// budget is claimed in input order, so under exhaustion exactly the first
// k un-memoized instances run — on every repetition, however the workers
// are scheduled.
func TestEvaluateSetBudgetDeterministic(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		funded := budgetPositions(t)
		if funded != [4]bool{true, true, false, false} {
			t.Fatalf("rep %d: funded = %v, want first two only", rep, funded)
		}
	}
}

// TestEvaluateBatchOracleError isolates a failing run: its budget refunds,
// the other instances of the round still commit.
func TestEvaluateBatchOracleError(t *testing.T) {
	s := testSpace(t)
	bad := pipeline.MustInstance(s, pipeline.Ord(4), pipeline.Ord(4))
	oracle := OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		if in.Equal(bad) {
			return pipeline.OutcomeUnknown, fmt.Errorf("boom")
		}
		return failIfA1(ctx, in)
	})
	ex := New(oracle, provenance.NewStore(s), WithWorkers(2))
	ins := []pipeline.Instance{
		pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1)),
		bad,
		pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2)),
	}
	results := ex.EvaluateBatch(context.Background(), ins)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good instances failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("bad instance did not report its oracle error")
	}
	if ex.Store().Len() != 2 {
		t.Fatalf("store has %d records, want 2", ex.Store().Len())
	}
	if ex.Spent() != 2 {
		t.Fatalf("Spent = %d, want 2 (failed run refunds)", ex.Spent())
	}

	// A round whose commit fails reports the commit error on every run
	// that did not reach the store and refunds each unit once, the failed
	// oracle run's included: an instance of another space makes the store
	// reject the whole batch. Evaluate's miss takes the same path.
	foreign := pipeline.MustInstance(testSpace(t), pipeline.Ord(3), pipeline.Ord(4))
	results = ex.EvaluateBatch(context.Background(), []pipeline.Instance{
		pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(3)), bad, foreign,
	})
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("result %d of a failed commit reported no error", i)
		}
	}
	if _, err := ex.Evaluate(context.Background(), foreign); err == nil {
		t.Fatal("Evaluate of an uncommittable instance reported no error")
	}
	if ex.Store().Len() != 2 || ex.Spent() != 2 {
		t.Fatalf("after failed commits: %d records, Spent = %d; want 2, 2", ex.Store().Len(), ex.Spent())
	}
}

// TestEvaluateBatchDurableResume batches a round into an executor over a
// durable store, reopens the state dir, and asserts the replayed
// provenance serves every instance with zero repeated oracle calls.
func TestEvaluateBatchDurableResume(t *testing.T) {
	dir := t.TempDir()
	c := &callCounter{calls: map[string]int{}}
	ex, l := openDurable(t, dir, durableSpace(), c.oracle(),
		[]provlog.Option{provlog.WithSync(true)}, WithWorkers(4))
	s := ex.Store().Space()
	var ins []pipeline.Instance
	for _, x := range []float64{1, 2, 3} {
		for _, m := range []string{"fast", "safe"} {
			ins = append(ins, pipeline.MustInstance(s, pipeline.Ord(x), pipeline.Cat(m)))
		}
	}
	for i, r := range ex.EvaluateBatch(context.Background(), ins) {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ex2, l2 := openDurable(t, dir, durableSpace(), c.oracle(), nil, WithWorkers(4))
	defer l2.Close()
	s2 := ex2.Store().Space()
	var ins2 []pipeline.Instance
	for _, in := range ins {
		vals := make([]pipeline.Value, in.Len())
		for i := range vals {
			vals[i] = in.Value(i)
		}
		ins2 = append(ins2, pipeline.MustInstance(s2, vals...))
	}
	for i, r := range ex2.EvaluateBatch(context.Background(), ins2) {
		if r.Err != nil {
			t.Fatalf("replayed result %d: %v", i, r.Err)
		}
	}
	if ex2.Spent() != 0 {
		t.Fatalf("resumed executor spent %d, want 0", ex2.Spent())
	}
	if c.max() != 1 {
		t.Fatalf("an instance reached the oracle %d times, want 1", c.max())
	}
}
