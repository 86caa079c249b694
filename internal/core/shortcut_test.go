package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
	"repro/internal/synth"
)

func ordDomain(vals ...float64) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Ord(v)
	}
	return out
}

func catDomain(vals ...string) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Cat(v)
	}
	return out
}

// truthOracle fails exactly on instances satisfying the ground-truth DNF.
func truthOracle(truth predicate.DNF) exec.Oracle {
	return exec.OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		if truth.Satisfied(in) {
			return pipeline.Fail, nil
		}
		return pipeline.Succeed, nil
	})
}

// mlSpace is the Figure 1 pipeline: Dataset x Estimator x LibraryVersion.
func mlSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "Dataset", Kind: pipeline.Categorical,
			Domain: catDomain("Iris", "Digits", "Images")},
		pipeline.Parameter{Name: "Estimator", Kind: pipeline.Categorical,
			Domain: catDomain("Logistic Regression", "Decision Tree", "Gradient Boosting")},
		pipeline.Parameter{Name: "LibraryVersion", Kind: pipeline.Categorical,
			Domain: catDomain("1.0", "2.0")},
	)
}

// TestShortcutExample1 reproduces Example 1 / Tables 1-2: starting from the
// initial provenance of Table 1, Shortcut executes the three substitutions
// of Table 2 and asserts LibraryVersion = 2.0.
func TestShortcutExample1(t *testing.T) {
	s := mlSpace(t)
	truth := predicate.Or(predicate.And(
		predicate.T("LibraryVersion", predicate.Eq, pipeline.Cat("2.0")),
	))
	st := provenance.NewStore(s)
	mustAdd := func(ds, est, ver string, out pipeline.Outcome) pipeline.Instance {
		in := pipeline.MustInstance(s, pipeline.Cat(ds), pipeline.Cat(est), pipeline.Cat(ver))
		if err := st.Add(in, out, "table1"); err != nil {
			t.Fatal(err)
		}
		return in
	}
	mustAdd("Iris", "Logistic Regression", "1.0", pipeline.Succeed)
	cpg := mustAdd("Digits", "Decision Tree", "1.0", pipeline.Succeed)
	cpf := mustAdd("Iris", "Gradient Boosting", "2.0", pipeline.Fail)

	ex := exec.New(truthOracle(truth), st)
	d, err := Shortcut(context.Background(), ex, cpf, cpg)
	if err != nil {
		t.Fatal(err)
	}
	want := predicate.And(predicate.T("LibraryVersion", predicate.Eq, pipeline.Cat("2.0")))
	if !d.EqualSyntactic(want) {
		t.Fatalf("Shortcut = %v, want %v", d, want)
	}
	// Table 2 shows three substitutions; the third one re-creates CP_g
	// (Digits, Decision Tree, 1.0), which memoization serves from Table 1's
	// provenance, so only two instances actually execute.
	if ex.Spent() != 2 {
		t.Fatalf("Shortcut executed %d instances, want 2", ex.Spent())
	}
	// The three Table 2 rows must be present with the paper's outcomes.
	check := func(ds, est, ver string, want pipeline.Outcome) {
		t.Helper()
		in := pipeline.MustInstance(s, pipeline.Cat(ds), pipeline.Cat(est), pipeline.Cat(ver))
		got, ok := st.Lookup(in)
		if !ok || got != want {
			t.Fatalf("instance (%s, %s, %s) = %v, %v; want %v", ds, est, ver, got, ok, want)
		}
	}
	check("Digits", "Gradient Boosting", "2.0", pipeline.Fail)
	check("Digits", "Decision Tree", "2.0", pipeline.Fail)
	check("Digits", "Decision Tree", "1.0", pipeline.Succeed)
}

// exampleSpace builds the 3-parameter space used by Examples 2 and 3, with
// ordinal parameters and values v=1, v'=2, v”=3.
func exampleSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "p1", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3)},
		pipeline.Parameter{Name: "p2", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3)},
		pipeline.Parameter{Name: "p3", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3)},
	)
}

func seedPair(t *testing.T, ex *exec.Executor, cpf, cpg pipeline.Instance) {
	t.Helper()
	ctx := context.Background()
	if out, err := ex.Evaluate(ctx, cpf); err != nil || out != pipeline.Fail {
		t.Fatalf("cpf evaluation = %v, %v", out, err)
	}
	if out, err := ex.Evaluate(ctx, cpg); err != nil || out != pipeline.Succeed {
		t.Fatalf("cpg evaluation = %v, %v", out, err)
	}
}

// TestShortcutExample2Truncation reproduces Example 2: with two minimal
// root causes D1 = (p1=1 AND p2=1) and D2 = (p1=2 AND p3=1) that are NOT
// sufficiently different, Shortcut yields the truncated assertion p3=1.
func TestShortcutExample2Truncation(t *testing.T) {
	s := exampleSpace(t)
	truth := predicate.Or(
		predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(1)),
			predicate.T("p2", predicate.Eq, pipeline.Ord(1))),
		predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(2)),
			predicate.T("p3", predicate.Eq, pipeline.Ord(1))),
	)
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	cpf := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1), pipeline.Ord(1))
	cpg := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2), pipeline.Ord(2))
	seedPair(t, ex, cpf, cpg)

	d, err := Shortcut(context.Background(), ex, cpf, cpg)
	if err != nil {
		t.Fatal(err)
	}
	want := predicate.And(predicate.T("p3", predicate.Eq, pipeline.Ord(1)))
	if !d.EqualSyntactic(want) {
		t.Fatalf("Shortcut = %v, want the truncated assertion %v", d, want)
	}
	// The assertion is truncated: p3=1 alone is not definitive.
	def, err := predicate.Definitive(s, d, truth)
	if err != nil {
		t.Fatal(err)
	}
	if def {
		t.Fatal("Example 2's assertion should NOT be definitive (it is truncated)")
	}
}

// TestShortcutExample3SufficientlyDifferent reproduces Example 3: the two
// causes share two parameters and differ on both, so Shortcut returns
// exactly D1 — no truncation.
func TestShortcutExample3SufficientlyDifferent(t *testing.T) {
	s := exampleSpace(t)
	// D1 = (p1=1 AND p2=1); D2 = (p1=2 AND p2=3 AND p3=1).
	truth := predicate.Or(
		predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(1)),
			predicate.T("p2", predicate.Eq, pipeline.Ord(1))),
		predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(2)),
			predicate.T("p2", predicate.Eq, pipeline.Ord(3)),
			predicate.T("p3", predicate.Eq, pipeline.Ord(1))),
	)
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	cpf := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1), pipeline.Ord(1))
	cpg := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2), pipeline.Ord(2))
	seedPair(t, ex, cpf, cpg)

	d, err := Shortcut(context.Background(), ex, cpf, cpg)
	if err != nil {
		t.Fatal(err)
	}
	want := predicate.And(
		predicate.T("p1", predicate.Eq, pipeline.Ord(1)),
		predicate.T("p2", predicate.Eq, pipeline.Ord(1)),
	)
	if !d.EqualSyntactic(want) {
		t.Fatalf("Shortcut = %v, want %v", d, want)
	}
	min, err := predicate.Minimal(s, d, truth)
	if err != nil || !min {
		t.Fatalf("assertion must be a minimal definitive root cause: %v, %v", min, err)
	}
}

// TestShortcutSanityCheckRefutes: when the history already contains a
// succeeding superset of the would-be assertion, Shortcut returns empty.
func TestShortcutSanityCheckRefutes(t *testing.T) {
	s := exampleSpace(t)
	// The oracle is adversarial history, not a function of a DNF: we pin
	// outcomes directly. Failure depends on p2 AND p3 together; the run
	// will strip p1 only, leaving D = (p2=1 AND p3=1)... but a succeeding
	// instance satisfying p2=1,p3=1 is planted in history first.
	outcomes := map[string]pipeline.Outcome{}
	reg := func(a, b, c float64, o pipeline.Outcome) pipeline.Instance {
		in := pipeline.MustInstance(s, pipeline.Ord(a), pipeline.Ord(b), pipeline.Ord(c))
		outcomes[in.Key()] = o
		return in
	}
	cpf := reg(1, 1, 1, pipeline.Fail)
	cpg := reg(2, 2, 2, pipeline.Succeed)
	reg(2, 1, 1, pipeline.Fail)    // p1 substitution still fails
	reg(2, 2, 1, pipeline.Succeed) // p2 substitution succeeds
	reg(2, 1, 2, pipeline.Succeed) // p3 substitution succeeds
	planted := reg(3, 1, 1, pipeline.Succeed)

	oracle := exec.OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		if o, ok := outcomes[in.Key()]; ok {
			return o, nil
		}
		return pipeline.Succeed, nil
	})
	st := provenance.NewStore(s)
	if err := st.Add(planted, pipeline.Succeed, "history"); err != nil {
		t.Fatal(err)
	}
	ex := exec.New(oracle, st)
	seedPair(t, ex, cpf, cpg)
	d, err := Shortcut(context.Background(), ex, cpf, cpg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Fatalf("Shortcut = %v, want empty (sanity check must refute)", d)
	}
}

func TestShortcutInputValidation(t *testing.T) {
	s := exampleSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(1))))
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	cpf := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1), pipeline.Ord(1))
	cpg := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2), pipeline.Ord(2))
	// Unrecorded cpf/cpg must be rejected.
	if _, err := Shortcut(context.Background(), ex, cpf, cpg); err == nil {
		t.Fatal("unrecorded cpf must fail")
	}
	seedPair(t, ex, cpf, cpg)
	// Swapped roles must be rejected.
	if _, err := Shortcut(context.Background(), ex, cpg, cpf); err == nil {
		t.Fatal("swapped cpf/cpg must fail")
	}
	other := exampleSpace(t)
	foreign := pipeline.MustInstance(other, pipeline.Ord(2), pipeline.Ord(2), pipeline.Ord(2))
	if _, err := Shortcut(context.Background(), ex, cpf, foreign); err == nil {
		t.Fatal("cross-space instances must fail")
	}
}

func TestShortcutBudgetExhaustionIsGraceful(t *testing.T) {
	s := exampleSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("p3", predicate.Eq, pipeline.Ord(1))))
	st := provenance.NewStore(s)
	cpf := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1), pipeline.Ord(1))
	cpg := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2), pipeline.Ord(2))
	if err := st.Add(cpf, pipeline.Fail, "seed"); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(cpg, pipeline.Succeed, "seed"); err != nil {
		t.Fatal(err)
	}
	ex := exec.New(truthOracle(truth), st, exec.WithBudget(1))
	d, err := Shortcut(context.Background(), ex, cpf, cpg)
	if err != nil {
		t.Fatal(err)
	}
	// Only the p1 substitution ran (fail); p2 and p3 were untestable, so
	// their cpf values survive: D = (p2=1 AND p3=1).
	want := predicate.And(
		predicate.T("p2", predicate.Eq, pipeline.Ord(1)),
		predicate.T("p3", predicate.Eq, pipeline.Ord(1)),
	)
	if !d.EqualSyntactic(want) {
		t.Fatalf("Shortcut = %v, want %v", d, want)
	}
}

// TestShortcutTheorem1 checks Theorem 1 on randomized pipelines: when all
// definitive root causes are singleton parameter-values and the
// Disjointness Condition holds, Shortcut asserts exactly a minimal
// definitive root cause.
func TestShortcutTheorem1(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		nParams := 3 + r.Intn(4)
		params := make([]pipeline.Parameter, nParams)
		for i := range params {
			nVals := 3 + r.Intn(4)
			dom := make([]pipeline.Value, nVals)
			for j := range dom {
				dom[j] = pipeline.Ord(float64(j + 1))
			}
			params[i] = pipeline.Parameter{
				Name: "p" + string(rune('0'+i)), Kind: pipeline.Ordinal, Domain: dom,
			}
		}
		s := pipeline.MustSpace(params...)
		// Singleton root cause on a random parameter/value.
		pi := r.Intn(nParams)
		val := s.At(pi).Domain[r.Intn(len(s.At(pi).Domain))]
		cause := predicate.And(predicate.T(s.At(pi).Name, predicate.Eq, val))
		truth := predicate.Or(cause)

		// cpf satisfies the cause; cpg is disjoint from cpf and avoids it.
		cpfVals := make([]pipeline.Value, nParams)
		cpgVals := make([]pipeline.Value, nParams)
		for i := 0; i < nParams; i++ {
			dom := s.At(i).Domain
			if i == pi {
				cpfVals[i] = val
				for {
					v := dom[r.Intn(len(dom))]
					if v != val {
						cpgVals[i] = v
						break
					}
				}
				continue
			}
			cpfVals[i] = dom[r.Intn(len(dom))]
			for {
				v := dom[r.Intn(len(dom))]
				if v != cpfVals[i] {
					cpgVals[i] = v
					break
				}
			}
		}
		cpf := pipeline.MustInstance(s, cpfVals...)
		cpg := pipeline.MustInstance(s, cpgVals...)
		ex := exec.New(truthOracle(truth), provenance.NewStore(s))
		seedPair(t, ex, cpf, cpg)

		d, err := Shortcut(context.Background(), ex, cpf, cpg)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := predicate.Equivalent(s, d, cause)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("trial %d: Shortcut = %v, want %v", trial, d, cause)
		}
		// Theorem 1 bounds the paper's linear pass by |P| new instances.
		// With one parameter in the cause, the group search splits down a
		// single path, two tests a level, and stays within that bound.
		if ex.Spent() > nParams+2 { // +2 for the seeded pair
			t.Fatalf("trial %d: spent %d instances for %d parameters", trial, ex.Spent(), nParams)
		}
	}
}

// TestShortcutTheorem2 checks Theorem 2: under the Disjointness Condition
// the assertion never strictly contains a minimal definitive root cause.
func TestShortcutTheorem2(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		s := exampleSpace(t)
		// Random conjunctive cause over 1-2 parameters with value 1.
		nCause := 1 + r.Intn(2)
		perm := r.Perm(3)[:nCause]
		var cause predicate.Conjunction
		for _, pi := range perm {
			cause = append(cause, predicate.T(s.At(pi).Name, predicate.Eq, pipeline.Ord(1)))
		}
		truth := predicate.Or(cause)
		cpf := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1), pipeline.Ord(1))
		cpg := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2), pipeline.Ord(2))
		ex := exec.New(truthOracle(truth), provenance.NewStore(s))
		seedPair(t, ex, cpf, cpg)

		d, err := Shortcut(context.Background(), ex, cpf, cpg)
		if err != nil {
			t.Fatal(err)
		}
		// d must never be a strict superset of the minimal cause.
		if len(d) > len(cause) && containsAllTriples(d, cause) {
			t.Fatalf("trial %d: %v strictly contains minimal cause %v", trial, d, cause)
		}
	}
}

func containsAllTriples(super, sub predicate.Conjunction) bool {
	for _, t := range sub {
		found := false
		for _, u := range super {
			if t == u {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestStackedShortcutTheorem5 extends Example 2 with a second disjoint good
// instance: the union of the two shortcut assertions is no longer
// truncated (it contains a full minimal definitive root cause).
func TestStackedShortcutTheorem5(t *testing.T) {
	s := exampleSpace(t)
	truth := predicate.Or(
		predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(1)),
			predicate.T("p2", predicate.Eq, pipeline.Ord(1))),
		predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(2)),
			predicate.T("p3", predicate.Eq, pipeline.Ord(1))),
	)
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	cpf := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1), pipeline.Ord(1))
	cpg1 := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Ord(2), pipeline.Ord(2))
	cpg2 := pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Ord(3), pipeline.Ord(3))
	ctx := context.Background()
	seedPair(t, ex, cpf, cpg1)
	if out, err := ex.Evaluate(ctx, cpg2); err != nil || out != pipeline.Succeed {
		t.Fatalf("cpg2 = %v, %v", out, err)
	}

	d, err := StackedShortcutWith(ctx, ex, cpf, []pipeline.Instance{cpg1, cpg2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) == 0 {
		t.Fatal("stacked assertion must not be empty")
	}
	// Not truncated: the assertion is definitive (every satisfying
	// instance fails), unlike the single-shortcut result of Example 2.
	def, err := predicate.Definitive(s, d, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !def {
		t.Fatalf("stacked assertion %v is still truncated", d)
	}
}

func TestStackedShortcutAutoRequiresHistory(t *testing.T) {
	s := exampleSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("p1", predicate.Eq, pipeline.Ord(1))))
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	if _, err := StackedShortcut(context.Background(), ex, 4); err == nil {
		t.Fatal("empty provenance must fail")
	}
}

// TestPickDisjointGoodFallsBackToMostDifferent pins the good run FindOne's
// Shortcut pass takes, MutuallyDisjointSucceeding(cpf, 1), when no
// succeeding run is disjoint from CP_f: the one differing from CP_f on the
// most parameters, the earliest of them on ties.
func TestPickDisjointGoodFallsBackToMostDifferent(t *testing.T) {
	s := exampleSpace(t)
	st := provenance.NewStore(s)
	inst := func(vals ...float64) pipeline.Instance { return pipeline.MustInstance(s, ordDomain(vals...)...) }
	cpf := inst(1, 1, 1)
	near, far, tie := inst(1, 1, 2), inst(1, 2, 2), inst(2, 2, 1)
	if err := st.Add(cpf, pipeline.Fail, "seed"); err != nil {
		t.Fatal(err)
	}
	for _, in := range []pipeline.Instance{near, far, tie} {
		if err := st.Add(in, pipeline.Succeed, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	got := st.MutuallyDisjointSucceeding(cpf, 1)
	if len(got) != 1 || !got[0].Equal(far) {
		t.Fatalf("good run = %v, want %v", got, far)
	}
}

// linearGood picks Shortcut's good run by a scan of the log: the earliest
// succeeding run disjoint from cpf, else the earliest of those differing
// from cpf on the most parameters.
func linearGood(sn provenance.Snapshot, cpf pipeline.Instance) (good pipeline.Instance, disjoint bool) {
	bestDiff := -1
	for _, rec := range sn.Records() {
		if rec.Outcome != pipeline.Succeed {
			continue
		}
		if rec.Instance.DisjointFrom(cpf) {
			return rec.Instance, true
		}
		if d := rec.Instance.DiffCount(cpf); d > bestDiff {
			good, bestDiff = rec.Instance, d
		}
	}
	return good, false
}

// TestFindOneShortcutMatchesLinearPick runs FindOne(AlgoShortcut) on
// synthetic pipelines of all three scenarios, with and without a budget,
// and on a copy of each store runs Shortcut against CP_f and CP_g picked by
// a scan of the log: the earliest failing run, and linearGood. Both must
// assert the same cause and spend the same executions. The histories mix
// disjoint and overlapping good runs, so both of linearGood's picks occur.
func TestFindOneShortcutMatchesLinearPick(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(30))
	pipelines, disjoint, fallbacks := 0, 0, 0
	for _, sc := range []synth.Scenario{synth.SingleTriple, synth.SingleConjunction, synth.Disjunction} {
		for trial := 0; trial < 80; trial++ {
			p, err := synth.Generate(r, synth.Config{MinParams: 2, MaxParams: 10, MinValues: 2, MaxValues: 6}, sc)
			if err != nil {
				t.Fatal(err)
			}
			cpf, ok := p.SampleFailing(r)
			if !ok {
				t.Fatalf("%v trial %d: no failing instance", sc, trial)
			}
			// A few random runs, the failing one, then succeeding runs that
			// keep some of its values; every third history may hold one
			// disjoint from it.
			var ins []pipeline.Instance
			for n := r.Intn(4); len(ins) < n; {
				ins = append(ins, p.Space.RandomInstance(r))
			}
			ins = append(ins, cpf)
			for j := 0; j < 1+r.Intn(4); j++ {
				keep := 0.2 + 0.5*r.Float64()
				if trial%3 == 0 && r.Intn(2) == 0 {
					keep = 0
				}
				if in, ok := succeedingNear(r, p, cpf, keep); ok {
					ins = append(ins, in)
				}
			}
			var history []provenance.Record
			seen, succeeding := map[string]bool{}, 0
			for _, in := range ins {
				if seen[in.Key()] {
					continue
				}
				seen[in.Key()] = true
				out := pipeline.Fail
				if !p.Truth.Satisfied(in) {
					out = pipeline.Succeed
					succeeding++
				}
				history = append(history, provenance.Record{Instance: in, Outcome: out, Source: "history"})
			}
			if succeeding == 0 {
				continue
			}
			pipelines++

			for _, budget := range []int{-1, r.Intn(2 * p.Space.Len())} {
				a, b := provenance.NewStore(p.Space), provenance.NewStore(p.Space)
				for _, st := range []*provenance.Store{a, b} {
					if _, err := st.AddBatch(history); err != nil {
						t.Fatal(err)
					}
				}
				exA := exec.New(p.Oracle(), a, exec.WithBudget(budget))
				got, err := FindOne(ctx, exA, AlgoShortcut, Options{})
				if err != nil {
					t.Fatal(err)
				}

				sn := b.Snapshot()
				var first pipeline.Instance
				for _, rec := range sn.Records() {
					if rec.Outcome == pipeline.Fail {
						first = rec.Instance
						break
					}
				}
				cpg, dis := linearGood(sn, first)
				exB := exec.New(p.Oracle(), b, exec.WithBudget(budget))
				want, err := Shortcut(ctx, exB, first, cpg)
				if err != nil {
					t.Fatal(err)
				}
				if w := wrapConjunction(want); len(got) != len(w) || (len(w) == 1 && !got[0].EqualSyntactic(w[0])) {
					t.Fatalf("%v trial %d, budget %d: FindOne = %v, Shortcut against the scanned pick %v = %v",
						sc, trial, budget, got, cpg, want)
				}
				if exA.Spent() != exB.Spent() {
					t.Fatalf("%v trial %d, budget %d: FindOne spent %d, Shortcut against the scanned pick %d",
						sc, trial, budget, exA.Spent(), exB.Spent())
				}
				if dis {
					disjoint++
				} else {
					fallbacks++
				}
			}
		}
	}
	if pipelines < 200 || disjoint < 50 || fallbacks < 50 {
		t.Fatalf("%d pipelines, %d runs against a disjoint good and %d against the fallback; want at least 200, 50 and 50",
			pipelines, disjoint, fallbacks)
	}
	t.Logf("%d pipelines, each run with and without a budget: %d runs against a disjoint good, %d against the most different one",
		pipelines, disjoint, fallbacks)
}
