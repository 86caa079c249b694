package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// linearShortcut is Algorithm 1 as the paper writes it: one substitution
// per parameter where cpf and cpg differ, in index order. It is the
// reference the group search is compared with.
func linearShortcut(ctx context.Context, ex *exec.Executor, cpf, cpg pipeline.Instance) (predicate.Conjunction, error) {
	s := cpf.Space()
	current := cpf
	for i := 0; i < s.Len(); i++ {
		if current.Code(i) == cpg.Code(i) {
			continue
		}
		candidate := current.With(i, cpg.Value(i))
		out, err := ex.Evaluate(ctx, candidate)
		if err != nil {
			return nil, err
		}
		if out == pipeline.Fail {
			current = candidate
		}
	}
	var d predicate.Conjunction
	for i := 0; i < s.Len(); i++ {
		if current.Code(i) == cpf.Code(i) {
			d = append(d, predicate.T(s.At(i).Name, predicate.Eq, cpf.Value(i)))
		}
	}
	if _, found := ex.Store().AnySucceedingSatisfying(d); found {
		return predicate.Conjunction{}, nil
	}
	return d.Canonical(), nil
}

// succeedingNear draws a succeeding instance that takes cpf's value on
// each parameter with probability keep and another domain value
// otherwise; keep 0 draws instances disjoint from cpf. It gives up after
// 200 draws.
func succeedingNear(r *rand.Rand, p *synth.Pipeline, cpf pipeline.Instance, keep float64) (pipeline.Instance, bool) {
	s := p.Space
	vals := make([]pipeline.Value, s.Len())
	for attempt := 0; attempt < 200; attempt++ {
		for i := range vals {
			dom := s.At(i).Domain
			vals[i] = cpf.Value(i)
			if r.Float64() >= keep {
				for vals[i] == cpf.Value(i) {
					vals[i] = dom[r.Intn(len(dom))]
				}
			}
		}
		in := pipeline.MustInstance(s, vals...)
		if !p.Truth.Satisfied(in) {
			return in, true
		}
	}
	return pipeline.Instance{}, false
}

// TestShortcutGroupSearchMatchesLinear compares the group search with the
// paper's linear pass where the order of substitutions cannot matter. Under
// a single-conjunction truth every failing instance satisfies each of the
// conjunction's triples, so substituting a group keeps the failure exactly
// when substituting each of its parameters alone does: without a budget,
// both passes keep cpf's value on the same parameters. Every instance
// either pass executes takes cpf's or cpg's value on each parameter, so
// none that satisfies D succeeds, and the sanity check, over the history
// both stores share, decides alike. The pairs include disjoint and
// non-disjoint goods, and a history that sometimes refutes D.
func TestShortcutGroupSearchMatchesLinear(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(26))
	pairs, saved := 0, 0
	for _, sc := range []synth.Scenario{synth.SingleTriple, synth.SingleConjunction} {
		for trial := 0; trial < 80; trial++ {
			p, err := synth.Generate(r, synth.Config{MinParams: 2, MaxParams: 14, MinValues: 3, MaxValues: 8}, sc)
			if err != nil {
				t.Fatal(err)
			}
			cpf, ok := p.SampleFailing(r)
			if !ok {
				t.Fatalf("%v trial %d: no failing instance", sc, trial)
			}
			keep := 0.0
			if trial%2 == 1 {
				keep = 0.5
			}
			cpg, ok := succeedingNear(r, p, cpf, keep)
			if !ok {
				continue
			}
			var history []pipeline.Instance
			for len(history) < trial%4*5 {
				history = append(history, p.Space.RandomInstance(r))
			}
			run := func(shortcut func(context.Context, *exec.Executor, pipeline.Instance, pipeline.Instance) (predicate.Conjunction, error)) (predicate.Conjunction, int) {
				ex := exec.New(p.Oracle(), provenance.NewStore(p.Space))
				for _, in := range append([]pipeline.Instance{cpf, cpg}, history...) {
					if _, err := ex.Evaluate(ctx, in); err != nil {
						t.Fatal(err)
					}
				}
				before := ex.Spent()
				d, err := shortcut(ctx, ex, cpf, cpg)
				if err != nil {
					t.Fatal(err)
				}
				return d, ex.Spent() - before
			}
			group, groupSpent := run(Shortcut)
			linear, linearSpent := run(linearShortcut)
			if !group.EqualSyntactic(linear) {
				t.Fatalf("%v trial %d: group search = %v, linear = %v (cpf %v, cpg %v, truth %v)",
					sc, trial, group, linear, cpf, cpg, p.Truth)
			}
			if diff := cpf.DiffCount(cpg); groupSpent > 2*diff-1 {
				t.Fatalf("%v trial %d: pass over %d differing parameters spent %d executions, want at most %d",
					sc, trial, diff, groupSpent, 2*diff-1)
			}
			pairs++
			if groupSpent < linearSpent {
				saved++
			}
		}
	}
	if pairs < 120 {
		t.Fatalf("only %d of 160 trials drew a succeeding cpg", pairs)
	}
	t.Logf("%d pairs; the group search spent less than the linear pass on %d", pairs, saved)
}

// TestStackedShortcutPassGuard runs Stacked Shortcut under every budget
// that funds its first pass, with a deterministic oracle. A further pass
// must start only while the budget covers its worst case, 2d − 1
// executions for the d parameters where CP_f and its good differ, and
// then never meet ErrBudgetExhausted; a pass that does not start must
// have lacked that budget. Each good takes one value of its own on the
// parameters it does not share with CP_f, so every execution names its
// pass. (Under a flaky policy one instance can take several budget
// units, so there a pass can still run out.)
func TestStackedShortcutPassGuard(t *testing.T) {
	params := make([]pipeline.Parameter, 6)
	for i := range params {
		params[i] = pipeline.Parameter{Name: "p" + string(rune('0'+i)), Kind: pipeline.Ordinal,
			Domain: ordDomain(0, 1, 2, 3, 4)}
	}
	s := pipeline.MustSpace(params...)
	eq0 := func(i int) predicate.Triple { return predicate.T(s.At(i).Name, predicate.Eq, pipeline.Ord(0)) }
	truth := predicate.Or(predicate.And(eq0(0), eq0(1)), predicate.And(eq0(2), eq0(3)))
	inst := func(vals ...float64) pipeline.Instance {
		return pipeline.MustInstance(s, ordDomain(vals...)...)
	}
	cpf := inst(0, 0, 0, 0, 0, 0)
	goods := []pipeline.Instance{
		inst(1, 1, 1, 1, 1, 1), // d = 6
		inst(2, 2, 0, 2, 0, 2), // d = 4
		inst(3, 3, 3, 0, 3, 3), // d = 5
		inst(4, 4, 0, 4, 0, 0), // d = 3
	}
	worst := make([]int, len(goods))
	for j, g := range goods {
		worst[j] = 2*cpf.DiffCount(g) - 1
	}
	// passOf names the pass that executes in: the good whose value it
	// takes. CP_f itself is recorded, so no pass executes it.
	passOf := func(in pipeline.Instance) int {
		for i := 0; i < s.Len(); i++ {
			if v := in.Value(i).Num(); v != 0 {
				return int(v) - 1
			}
		}
		return -1
	}

	ctx := context.Background()
	for budget := worst[0]; budget <= worst[0]+worst[1]+worst[2]+worst[3]; budget++ {
		st := provenance.NewStore(s)
		if err := st.Add(cpf, pipeline.Fail, "seed"); err != nil {
			t.Fatal(err)
		}
		for _, g := range goods {
			if err := st.Add(g, pipeline.Succeed, "seed"); err != nil {
				t.Fatal(err)
			}
		}
		var ex *exec.Executor
		startRemaining := make(map[int]int) // pass → budget before its first execution
		// One worker: the oracle runs on the test's goroutine.
		oracle := exec.OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
			pass := passOf(in)
			if pass < 0 {
				return pipeline.OutcomeUnknown, fmt.Errorf("executed CP_f %v again", in)
			}
			if _, seen := startRemaining[pass]; !seen {
				remaining, _ := ex.Remaining() // already charged for in
				startRemaining[pass] = remaining + 1
			}
			return truthOracle(truth).Run(ctx, in)
		})
		reg := telemetry.NewRegistry()
		ex = exec.New(oracle, st, exec.WithBudget(budget), exec.WithTelemetry(exec.NewTelemetry(reg, nil)))
		if _, err := StackedShortcutWith(ctx, ex, cpf, goods); err != nil {
			t.Fatal(err)
		}

		// Every pass that starts executes something: its first half-group
		// takes values of its good that no instance yet holds.
		started := len(startRemaining)
		for j := 0; j < started; j++ {
			remaining, ok := startRemaining[j]
			if !ok {
				t.Fatalf("budget %d: pass %d ran but pass %d did not", budget, started-1, j)
			}
			if j > 0 && remaining < worst[j] {
				t.Fatalf("budget %d: pass %d started with %d left, below its worst case %d",
					budget, j, remaining, worst[j])
			}
		}
		if started < len(goods) {
			if left := budget - ex.Spent(); left >= worst[started] {
				t.Fatalf("budget %d: pass %d did not start with %d left, which covers its worst case %d",
					budget, started, left, worst[started])
			}
		}
		misses, trials := reg.Counter("exec_memo_misses").Load(), reg.Counter("exec_oracle_trials").Load()
		if misses != trials {
			t.Fatalf("budget %d: %d instances missed the store but %d ran: a pass met ErrBudgetExhausted",
				budget, misses, trials)
		}
	}
}
