package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

// TestConcurrentEvaluateSameInstance hammers one instance from many
// goroutines: everyone must observe the same outcome and the oracle must
// not be recorded twice.
func TestConcurrentEvaluateSameInstance(t *testing.T) {
	s := testSpace(t)
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s))
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(2))
	const n = 32
	outcomes := make([]pipeline.Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := ex.Evaluate(context.Background(), in)
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = out
		}(i)
	}
	wg.Wait()
	for i, out := range outcomes {
		if out != pipeline.Fail {
			t.Fatalf("goroutine %d observed %v", i, out)
		}
	}
	if got := ex.Store().Len(); got != 1 {
		t.Fatalf("store holds %d records, want 1", got)
	}
}

// TestConcurrentBudgetNeverOverspends races many distinct instances against
// a small budget: successful evaluations must never exceed it.
func TestConcurrentBudgetNeverOverspends(t *testing.T) {
	s := testSpace(t)
	const budget = 5
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s), WithBudget(budget))
	var wg sync.WaitGroup
	var mu sync.Mutex
	okCount := 0
	for a := 1; a <= 4; a++ {
		for b := 1; b <= 4; b++ {
			in := pipeline.MustInstance(s, pipeline.Ord(float64(a)), pipeline.Ord(float64(b)))
			wg.Add(1)
			go func(in pipeline.Instance) {
				defer wg.Done()
				_, err := ex.Evaluate(context.Background(), in)
				switch {
				case err == nil:
					mu.Lock()
					okCount++
					mu.Unlock()
				case errors.Is(err, ErrBudgetExhausted):
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}(in)
		}
	}
	wg.Wait()
	if okCount != budget {
		t.Fatalf("%d evaluations succeeded with budget %d", okCount, budget)
	}
	if ex.Spent() != budget {
		t.Fatalf("Spent = %d", ex.Spent())
	}
}

// TestConcurrentStoreReadsDuringWrites interleaves store queries with
// executor writes; the race detector guards correctness.
func TestConcurrentStoreReadsDuringWrites(t *testing.T) {
	s := testSpace(t)
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s), WithWorkers(4))
	var ins []pipeline.Instance
	for a := 1; a <= 4; a++ {
		for b := 1; b <= 4; b++ {
			ins = append(ins, pipeline.MustInstance(s, pipeline.Ord(float64(a)), pipeline.Ord(float64(b))))
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = ex.Store().Failing()
			_, _ = ex.Store().FirstFailing()
			_, _ = ex.Store().Outcomes()
		}
	}()
	results := ex.EvaluateBatch(context.Background(), ins)
	<-done
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}
