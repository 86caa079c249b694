package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

func testSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: []pipeline.Value{
			pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(3), pipeline.Ord(4),
		}},
		pipeline.Parameter{Name: "b", Kind: pipeline.Ordinal, Domain: []pipeline.Value{
			pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(3), pipeline.Ord(4),
		}},
	)
}

// failIfA1 fails exactly when a == 1.
func failIfA1(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	if v, _ := in.ByName("a"); v == pipeline.Ord(1) {
		return pipeline.Fail, nil
	}
	return pipeline.Succeed, nil
}

func TestEvaluateMemoizes(t *testing.T) {
	s := testSpace(t)
	var calls atomic.Int32
	oracle := OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		calls.Add(1)
		return failIfA1(ctx, in)
	})
	ex := New(oracle, provenance.NewStore(s))
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(2))
	for i := 0; i < 3; i++ {
		out, err := ex.Evaluate(context.Background(), in)
		if err != nil || out != pipeline.Fail {
			t.Fatalf("Evaluate = %v, %v", out, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("oracle called %d times, want 1", n)
	}
	if ex.Spent() != 1 {
		t.Fatalf("Spent = %d, want 1", ex.Spent())
	}
}

func TestEvaluateUsesSeededProvenance(t *testing.T) {
	s := testSpace(t)
	st := provenance.NewStore(s)
	in := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2))
	if err := st.Add(in, pipeline.Succeed, "history"); err != nil {
		t.Fatal(err)
	}
	boom := OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
		t.Fatal("oracle must not run for seeded instances")
		return pipeline.OutcomeUnknown, nil
	})
	ex := New(boom, st, WithBudget(0))
	out, err := ex.Evaluate(context.Background(), in)
	if err != nil || out != pipeline.Succeed {
		t.Fatalf("Evaluate = %v, %v", out, err)
	}
	if ex.Spent() != 0 {
		t.Fatalf("seeded lookup must not consume budget, spent = %d", ex.Spent())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s := testSpace(t)
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s), WithBudget(2))
	ctx := context.Background()
	ins := []pipeline.Instance{
		pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1)),
		pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2)),
		pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(3)),
	}
	for i, in := range ins[:2] {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if _, err := ex.Evaluate(ctx, ins[2]); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// Memoized instances stay free after exhaustion.
	if _, err := ex.Evaluate(ctx, ins[0]); err != nil {
		t.Fatalf("memoized after exhaustion: %v", err)
	}
	if rem, bounded := ex.Remaining(); !bounded || rem != 0 {
		t.Fatalf("Remaining = %d, %v", rem, bounded)
	}
}

func TestOracleErrorReleasesBudget(t *testing.T) {
	s := testSpace(t)
	bad := OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
		return pipeline.OutcomeUnknown, errors.New("kaboom")
	})
	ex := New(bad, provenance.NewStore(s), WithBudget(1))
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	if _, err := ex.Evaluate(context.Background(), in); err == nil {
		t.Fatal("oracle error must propagate")
	}
	if rem, _ := ex.Remaining(); rem != 1 {
		t.Fatalf("budget must be released on oracle error, remaining = %d", rem)
	}
	if ex.Spent() != 0 {
		t.Fatalf("Spent = %d, want 0", ex.Spent())
	}
}

func TestInvalidOracleOutcome(t *testing.T) {
	s := testSpace(t)
	bad := OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
		return pipeline.OutcomeUnknown, nil
	})
	ex := New(bad, provenance.NewStore(s))
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	if _, err := ex.Evaluate(context.Background(), in); err == nil {
		t.Fatal("unknown outcome from oracle must error")
	}
}

func TestEvaluateContextCancelled(t *testing.T) {
	s := testSpace(t)
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	if _, err := ex.Evaluate(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ex.Spent() != 0 {
		t.Fatal("cancelled evaluation must not consume budget")
	}
}

// TestEvaluateAllParallelAndOrdered evaluates all of a set through
// EvaluateBatch at 1, 2 and 4 workers: the calling goroutine and workers−1
// more run the oracle, so the peak of concurrent oracle calls reaches 2
// when there are two workers or more and never exceeds the worker count,
// and the results come back in input order.
func TestEvaluateAllParallelAndOrdered(t *testing.T) {
	s := testSpace(t)
	var ins []pipeline.Instance
	for a := 1.0; a <= 4; a++ {
		for b := 1.0; b <= 4; b++ {
			ins = append(ins, pipeline.MustInstance(s, pipeline.Ord(a), pipeline.Ord(b)))
		}
	}
	for _, workers := range []int{1, 2, 4} {
		var inFlight, peak atomic.Int32
		oracle := OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			return failIfA1(ctx, in)
		})
		ex := New(oracle, provenance.NewStore(s), WithWorkers(workers))
		results := ex.EvaluateBatch(context.Background(), ins)
		if len(results) != len(ins) {
			t.Fatalf("workers %d: results = %d", workers, len(results))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers %d: result %d: %v", workers, i, r.Err)
			}
			if !r.Instance.Equal(ins[i]) {
				t.Fatalf("workers %d: result %d out of order", workers, i)
			}
			want := pipeline.Succeed
			if ins[i].Value(0) == pipeline.Ord(1) {
				want = pipeline.Fail
			}
			if r.Outcome != want {
				t.Fatalf("workers %d: result %d = %v, want %v", workers, i, r.Outcome, want)
			}
		}
		p := peak.Load()
		if p > int32(workers) {
			t.Fatalf("workers %d: peak concurrency = %d, above the worker count", workers, p)
		}
		if workers >= 2 && p < 2 {
			t.Fatalf("workers %d: peak concurrency = %d, want >= 2", workers, p)
		}
	}
}

// TestEvaluateAllPartialBudget evaluates all of a set on a budget that
// covers half of it: the funded half succeeds and the rest reports
// ErrBudgetExhausted.
func TestEvaluateAllPartialBudget(t *testing.T) {
	s := testSpace(t)
	ex := New(OracleFunc(failIfA1), provenance.NewStore(s), WithBudget(2), WithWorkers(2))
	var ins []pipeline.Instance
	for a := 1.0; a <= 4; a++ {
		ins = append(ins, pipeline.MustInstance(s, pipeline.Ord(a), pipeline.Ord(a)))
	}
	results := ex.EvaluateBatch(context.Background(), ins)
	okCount, budgetErrs := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil:
			okCount++
		case errors.Is(r.Err, ErrBudgetExhausted):
			budgetErrs++
		default:
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if okCount != 2 || budgetErrs != 2 {
		t.Fatalf("ok = %d, budget errors = %d; want 2 and 2", okCount, budgetErrs)
	}
}

func TestHistoricalOracle(t *testing.T) {
	s := testSpace(t)
	known := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	h, err := NewHistoricalOracle(
		[]pipeline.Instance{known},
		[]pipeline.Outcome{pipeline.Fail},
	)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
	out, err := h.Run(context.Background(), known)
	if err != nil || out != pipeline.Fail {
		t.Fatalf("Run = %v, %v", out, err)
	}
	unknown := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2))
	if _, err := h.Run(context.Background(), unknown); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v, want ErrUnknownInstance", err)
	}
	if _, err := NewHistoricalOracle([]pipeline.Instance{known}, nil); err == nil {
		t.Fatal("length mismatch must fail")
	}
	// Through the executor, the error wraps but stays identifiable.
	ex := New(h, provenance.NewStore(s))
	if _, err := ex.Evaluate(context.Background(), unknown); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("executor err = %v, want ErrUnknownInstance", err)
	}
}

func TestLatencyOracle(t *testing.T) {
	s := testSpace(t)
	o := LatencyOracle(OracleFunc(failIfA1), 20*time.Millisecond)
	start := time.Now()
	in := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2))
	out, err := o.Run(context.Background(), in)
	if err != nil || out != pipeline.Succeed {
		t.Fatalf("Run = %v, %v", out, err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
	// Cancellation interrupts the sleep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slow := LatencyOracle(OracleFunc(failIfA1), time.Hour)
	if _, err := slow.Run(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLatencySpeedupWithWorkers(t *testing.T) {
	// With 8 workers and 10ms latency, 16 instances should take far less
	// than the serial 160ms; this is the mechanism behind Figure 6.
	s := testSpace(t)
	makeIns := func() []pipeline.Instance {
		var ins []pipeline.Instance
		for a := 1.0; a <= 4; a++ {
			for b := 1.0; b <= 4; b++ {
				ins = append(ins, pipeline.MustInstance(s, pipeline.Ord(a), pipeline.Ord(b)))
			}
		}
		return ins
	}
	run := func(workers int) time.Duration {
		ex := New(LatencyOracle(OracleFunc(failIfA1), 10*time.Millisecond),
			provenance.NewStore(s), WithWorkers(workers))
		start := time.Now()
		ex.EvaluateBatch(context.Background(), makeIns())
		return time.Since(start)
	}
	serial := run(1)
	parallel := run(8)
	if parallel >= serial {
		t.Fatalf("8 workers (%v) not faster than 1 worker (%v)", parallel, serial)
	}
}
