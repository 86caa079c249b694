package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// scriptedOracle replays a fixed per-instance verdict sequence, repeating
// the last entry once exhausted. Safe for concurrent use.
type scriptedOracle struct {
	mu      sync.Mutex
	scripts *pipeline.InstanceMap[[]pipeline.Outcome]
	next    *pipeline.InstanceMap[int32]
	calls   atomic.Int32
}

func newScriptedOracle() *scriptedOracle {
	return &scriptedOracle{
		scripts: pipeline.NewInstanceMap[[]pipeline.Outcome](8),
		next:    pipeline.NewInstanceMap[int32](8),
	}
}

func (o *scriptedOracle) script(in pipeline.Instance, outs ...pipeline.Outcome) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.scripts.Put(in, outs)
}

func (o *scriptedOracle) Run(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	o.calls.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	seq, ok := o.scripts.Get(in)
	if !ok || len(seq) == 0 {
		return pipeline.OutcomeUnknown, fmt.Errorf("no script for %v", in)
	}
	n, _ := o.next.Get(in)
	o.next.Put(in, n+1)
	if int(n) >= len(seq) {
		n = int32(len(seq) - 1)
	}
	return seq[n], nil
}

func TestEvaluateFlakyQuorumResolves(t *testing.T) {
	s := testSpace(t)
	oracle := newScriptedOracle()
	a := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	b := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2))
	// a: one dissenting vote forces a fourth trial before the fail quorum.
	oracle.script(a, pipeline.Fail, pipeline.Succeed, pipeline.Fail, pipeline.Fail)
	oracle.script(b, pipeline.Succeed, pipeline.Succeed, pipeline.Succeed)
	ex := New(oracle, provenance.NewStore(s),
		WithFlakyPolicy(FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}))
	ctx := context.Background()

	out, err := ex.Evaluate(ctx, a)
	if err != nil || out != pipeline.Fail {
		t.Fatalf("Evaluate(a) = %v, %v", out, err)
	}
	if got := oracle.calls.Load(); got != 4 {
		t.Fatalf("a resolved after %d trials, want 4", got)
	}
	if got := ex.Store().TrialCount(a); got != 4 {
		t.Fatalf("TrialCount(a) = %d, want 4", got)
	}
	if got := ex.Store().TrialMargin(a); got != 2 {
		t.Fatalf("TrialMargin(a) = %d, want 2 (3 fail - 1 succeed)", got)
	}
	if out, err := ex.Evaluate(ctx, b); err != nil || out != pipeline.Succeed {
		t.Fatalf("Evaluate(b) = %v, %v", out, err)
	}
	if got := ex.Spent(); got != 7 {
		t.Fatalf("Spent = %d, want 7 (every trial costs one unit)", got)
	}
	// Resolved instances are memoized: no further trials.
	before := oracle.calls.Load()
	if out, err := ex.Evaluate(ctx, a); err != nil || out != pipeline.Fail {
		t.Fatalf("re-Evaluate(a) = %v, %v", out, err)
	}
	if oracle.calls.Load() != before {
		t.Fatal("memoized flaky instance re-ran the oracle")
	}
}

func TestEvaluateFlakyTieIsInconclusive(t *testing.T) {
	s := testSpace(t)
	oracle := newScriptedOracle()
	in := pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(3))
	oracle.script(in, pipeline.Succeed, pipeline.Fail, pipeline.Succeed, pipeline.Fail)
	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg, nil)
	ex := New(oracle, provenance.NewStore(s),
		WithFlakyPolicy(FlakyPolicy{MinTrials: 2, MaxTrials: 4, Quorum: 3}),
		WithTelemetry(tel))
	ctx := context.Background()

	out, err := ex.Evaluate(ctx, in)
	if err != nil || out != pipeline.OutcomeInconclusive {
		t.Fatalf("Evaluate = %v, %v; want inconclusive tie", out, err)
	}
	if got := oracle.calls.Load(); got != 4 {
		t.Fatalf("tie declared after %d trials, want the MaxTrials cap 4", got)
	}
	// The tie is memoized like any outcome: no re-trials, served from
	// provenance, and counted by the quorum telemetry exactly once.
	if out, err := ex.Evaluate(ctx, in); err != nil || out != pipeline.OutcomeInconclusive {
		t.Fatalf("re-Evaluate = %v, %v", out, err)
	}
	if got := oracle.calls.Load(); got != 4 {
		t.Fatalf("memoized tie re-ran the oracle (%d calls)", got)
	}
	if got := tel.quorumTies.Load(); got != 1 {
		t.Fatalf("exec_quorum_ties = %d, want 1", got)
	}
	if got := tel.trialsPerInst.Count(); got != 1 {
		t.Fatalf("exec_trials_per_instance observations = %d, want 1", got)
	}
}

func TestFlakyBudgetSpansTrials(t *testing.T) {
	s := testSpace(t)
	oracle := newScriptedOracle()
	a := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(2))
	b := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(1))
	oracle.script(a, pipeline.Fail)
	oracle.script(b, pipeline.Fail)
	ex := New(oracle, provenance.NewStore(s),
		WithFlakyPolicy(FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}),
		WithBudget(3))
	ctx := context.Background()

	if out, err := ex.Evaluate(ctx, a); err != nil || out != pipeline.Fail {
		t.Fatalf("Evaluate(a) = %v, %v", out, err)
	}
	if got := ex.Spent(); got != 3 {
		t.Fatalf("Spent = %d, want 3 (one unit per trial)", got)
	}
	if _, err := ex.Evaluate(ctx, b); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// The resolved instance stays free.
	if out, err := ex.Evaluate(ctx, a); err != nil || out != pipeline.Fail {
		t.Fatalf("memoized after exhaustion: %v, %v", out, err)
	}
}

func TestFlakyOracleErrorRefundsTrial(t *testing.T) {
	s := testSpace(t)
	in := pipeline.MustInstance(s, pipeline.Ord(4), pipeline.Ord(4))
	var calls atomic.Int32
	oracle := OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
		if calls.Add(1) == 2 {
			return pipeline.OutcomeUnknown, errors.New("transient crash")
		}
		return pipeline.Fail, nil
	})
	ex := New(oracle, provenance.NewStore(s),
		WithFlakyPolicy(FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}))
	ctx := context.Background()

	if _, err := ex.Evaluate(ctx, in); err == nil {
		t.Fatal("mid-quorum oracle error must propagate")
	}
	// The first vote was recorded and stays paid; the errored trial's unit
	// was refunded.
	if got := ex.Spent(); got != 1 {
		t.Fatalf("Spent after error = %d, want 1", got)
	}
	if got := ex.Store().TrialCount(in); got != 1 {
		t.Fatalf("TrialCount after error = %d, want 1", got)
	}
	// A retry resumes the partial quorum rather than starting over.
	out, err := ex.Evaluate(ctx, in)
	if err != nil || out != pipeline.Fail {
		t.Fatalf("retry = %v, %v", out, err)
	}
	if got := ex.Store().TrialCount(in); got != 3 {
		t.Fatalf("TrialCount after retry = %d, want 3", got)
	}
	if got := ex.Spent(); got != 3 {
		t.Fatalf("Spent after retry = %d, want 3", got)
	}
}

// TestFlakyResumeFromReplayedVotes resumes durable flaky sessions whose
// votes outlived the process that cast them while the instance's record
// never committed. Replayed votes that already settle the instance cost
// nothing: the resumed Evaluate commits their outcome without a trial.
// Replayed votes that leave it mid-quorum cost only the missing trials.
func TestFlakyResumeFromReplayedVotes(t *testing.T) {
	cases := []struct {
		name   string
		policy FlakyPolicy
		votes  []pipeline.Outcome // recorded before the restart
		trials int                // trials the resumed Evaluate pays for
	}{
		{"settled", FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3},
			[]pipeline.Outcome{pipeline.Fail, pipeline.Fail, pipeline.Fail}, 0},
		{"mid-quorum", FlakyPolicy{MinTrials: 1, MaxTrials: 4, Quorum: 4},
			[]pipeline.Outcome{pipeline.Fail, pipeline.Succeed}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var calls atomic.Int32
			oracle := OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
				calls.Add(1)
				return pipeline.Fail, nil
			})
			s1 := durableSpace()
			e1, l1 := openDurable(t, dir, s1, oracle, nil, WithFlakyPolicy(c.policy))
			in1 := pipeline.MustInstance(s1, pipeline.Ord(3), pipeline.Cat("safe"))
			for _, v := range c.votes {
				if _, err := e1.Store().AddTrial(in1, v, "executor"); err != nil {
					t.Fatal(err)
				}
			}
			if err := l1.Close(); err != nil {
				t.Fatal(err)
			}

			s2 := durableSpace()
			e2, l2 := openDurable(t, dir, s2, oracle, nil, WithFlakyPolicy(c.policy))
			defer l2.Close()
			in2 := pipeline.MustInstance(s2, pipeline.Ord(3), pipeline.Cat("safe"))
			out, err := e2.Evaluate(context.Background(), in2)
			if err != nil || out != pipeline.Fail {
				t.Fatalf("resumed Evaluate = %v, %v; want fail", out, err)
			}
			if got := int(calls.Load()); got != c.trials {
				t.Fatalf("resumed Evaluate ran %d trials, want %d", got, c.trials)
			}
			if got := e2.Spent(); got != c.trials {
				t.Fatalf("Spent = %d, want %d", got, c.trials)
			}
			if got := e2.Store().TrialCount(in2); got != len(c.votes)+c.trials {
				t.Fatalf("TrialCount = %d, want %d", got, len(c.votes)+c.trials)
			}
			if rec, ok := e2.Store().Lookup(in2); !ok || rec != pipeline.Fail {
				t.Fatalf("committed record = %v, %v; want fail", rec, ok)
			}
		})
	}
}

func TestEvaluateBatchFlaky(t *testing.T) {
	s := testSpace(t)
	var calls atomic.Int32
	oracle := OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		calls.Add(1)
		return failIfA1(ctx, in)
	})
	ex := New(oracle, provenance.NewStore(s),
		WithFlakyPolicy(FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}),
		WithWorkers(4))
	ins := []pipeline.Instance{
		pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1)),
		pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2)),
		pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1)), // duplicate
		pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(3)),
	}
	results := ex.EvaluateBatch(context.Background(), ins)
	want := []pipeline.Outcome{pipeline.Fail, pipeline.Succeed, pipeline.Fail, pipeline.Succeed}
	for i, r := range results {
		if r.Err != nil || r.Outcome != want[i] {
			t.Fatalf("result %d = %v, %v; want %v", i, r.Outcome, r.Err, want[i])
		}
	}
	// Three distinct instances x three agreeing trials each; the duplicate
	// adopted its twin's resolution without dispatching.
	if got := calls.Load(); got != 9 {
		t.Fatalf("oracle ran %d trials, want 9", got)
	}
	if got := ex.Spent(); got != 9 {
		t.Fatalf("Spent = %d, want 9", got)
	}
	for _, in := range ins {
		if got := ex.Store().TrialCount(in); got != 3 {
			t.Fatalf("TrialCount(%v) = %d, want 3", in, got)
		}
	}
}

func TestFlakyDisabledPolicyIsDeterministicPath(t *testing.T) {
	s := testSpace(t)
	var calls atomic.Int32
	oracle := OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		calls.Add(1)
		return failIfA1(ctx, in)
	})
	// The zero policy is explicitly the single-trial path.
	ex := New(oracle, provenance.NewStore(s), WithFlakyPolicy(FlakyPolicy{}))
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(3))
	out, err := ex.Evaluate(context.Background(), in)
	if err != nil || out != pipeline.Fail {
		t.Fatalf("Evaluate = %v, %v", out, err)
	}
	if calls.Load() != 1 || ex.Spent() != 1 {
		t.Fatalf("calls = %d, spent = %d; want 1, 1", calls.Load(), ex.Spent())
	}
	if got := ex.Store().TrialCount(in); got != 0 {
		t.Fatalf("deterministic path recorded %d trial votes, want 0", got)
	}
}

func TestFlakyPolicyValidationOnConstruction(t *testing.T) {
	s := testSpace(t)
	bad := FlakyPolicy{MinTrials: 4, MaxTrials: 2, Quorum: 1}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New accepted an invalid flaky policy")
			}
		}()
		New(OracleFunc(failIfA1), provenance.NewStore(s), WithFlakyPolicy(bad))
	}()
}

// TestFlakyQuorumRaceStress races 8 workers re-dispatching the same
// instances under a genuinely 50/50 oracle (deterministic per instance and
// per trial ordinal, so -race runs reproduce). It checks the resolution
// invariants the design note promises: per-instance vote counts only ever
// grow, no instance records more than MaxTrials votes (racing workers may
// dispatch more trials than that, but the ledger refuses votes once the
// tallies resolve), every worker observes the one committed outcome, and
// re-resolving the recorded final tallies under the policy reproduces
// exactly that outcome.
func TestFlakyQuorumRaceStress(t *testing.T) {
	s := testSpace(t)
	policy := FlakyPolicy{MinTrials: 3, MaxTrials: 7, Quorum: 4}
	var counterMu sync.Mutex
	ordinals := pipeline.NewInstanceMap[int32](16)
	oracle := OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		counterMu.Lock()
		k, _ := ordinals.Get(in)
		ordinals.Put(in, k+1)
		counterMu.Unlock()
		h := in.Hash() ^ uint64(k)*0x9e3779b97f4a7c15
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		if h&1 == 0 {
			return pipeline.Succeed, nil
		}
		return pipeline.Fail, nil
	})
	ex := New(oracle, provenance.NewStore(s), WithFlakyPolicy(policy))

	var ins []pipeline.Instance
	for a := 1; a <= 4; a++ {
		for b := 1; b <= 4; b++ {
			ins = append(ins, pipeline.MustInstance(s, pipeline.Ord(float64(a)), pipeline.Ord(float64(b))))
		}
	}

	// Monitor: vote counters must be monotone while the workers race.
	done := make(chan struct{})
	var monitorErr atomic.Value
	go func() {
		last := make([]int, len(ins))
		for {
			for i, in := range ins {
				n := ex.Store().TrialCount(in)
				if n < last[i] {
					monitorErr.Store(fmt.Errorf("instance %d vote count shrank: %d -> %d", i, last[i], n))
					return
				}
				last[i] = n
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	outcomes := make([][]pipeline.Outcome, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outcomes[w] = make([]pipeline.Outcome, len(ins))
			for i := range ins {
				// Stagger the order per worker so trials genuinely contend.
				i := (i*7 + w*3) % len(ins)
				out, err := ex.Evaluate(context.Background(), ins[i])
				if err != nil {
					t.Errorf("worker %d instance %d: %v", w, i, err)
					return
				}
				outcomes[w][i] = out
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if err := monitorErr.Load(); err != nil {
		t.Fatal(err)
	}

	totalVotes := 0
	for i, in := range ins {
		committed, ok := ex.Store().Lookup(in)
		if !ok {
			t.Fatalf("instance %d never resolved", i)
		}
		for w := 0; w < workers; w++ {
			if outcomes[w][i] != pipeline.OutcomeUnknown && outcomes[w][i] != committed {
				t.Fatalf("worker %d saw %v for instance %d, committed %v", w, outcomes[w][i], i, committed)
			}
		}
		votes := ex.Store().TrialVotes(in)
		if len(votes) < policy.MinTrials || len(votes) > policy.MaxTrials {
			t.Fatalf("instance %d recorded %d votes, want within [%d, %d]",
				i, len(votes), policy.MinTrials, policy.MaxTrials)
		}
		succ, fail := 0, 0
		for _, v := range votes {
			switch v.Outcome {
			case pipeline.Succeed:
				succ++
			case pipeline.Fail:
				fail++
			default:
				t.Fatalf("instance %d holds a non-verdict vote %v", i, v.Outcome)
			}
		}
		out, doneRes := policy.Resolve(succ, fail)
		if !doneRes || out != committed {
			t.Fatalf("instance %d: re-resolving recorded tallies (%d, %d) = %v, %v; committed %v",
				i, succ, fail, out, doneRes, committed)
		}
		totalVotes += len(votes)
	}
	// Every recorded vote cost one budget unit; discarded votes (a racing
	// quorum resolved first) also stay paid, so spent >= the ledger total
	// and equals the oracle's call count exactly (no calls errored).
	var calls int
	counterMu.Lock()
	// Sum the per-instance ordinals: each oracle call bumped exactly one.
	for _, in := range ins {
		k, _ := ordinals.Get(in)
		calls += int(k)
	}
	counterMu.Unlock()
	if spent := ex.Spent(); spent != calls || spent < totalVotes {
		t.Fatalf("Spent = %d, oracle calls = %d, recorded votes = %d", spent, calls, totalVotes)
	}
}
