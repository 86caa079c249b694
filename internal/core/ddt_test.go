package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
)

func ddtSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4, 5)},
		pipeline.Parameter{Name: "y", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4, 5)},
		pipeline.Parameter{Name: "c", Kind: pipeline.Categorical, Domain: catDomain("red", "green", "blue")},
	)
}

func seededExecutor(t *testing.T, s *pipeline.Space, truth predicate.DNF, seed int64, budget int) *exec.Executor {
	t.Helper()
	var opts []exec.Option
	if budget > 0 {
		opts = append(opts, exec.WithBudget(budget))
	}
	ex := exec.New(truthOracle(truth), provenance.NewStore(s), opts...)
	r := rand.New(rand.NewSource(seed))
	if err := SeedHistory(context.Background(), ex, r, 500); err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestDDTFindsInequalityCause(t *testing.T) {
	s := ddtSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	ex := seededExecutor(t, s, truth, 7, 0)
	got, err := DebugDecisionTrees(context.Background(), ex, DDTOptions{
		Rand: rand.New(rand.NewSource(7)), FindAll: true, Simplify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("DDT found nothing")
	}
	// Every asserted cause must be definitive with respect to the truth.
	for _, c := range got {
		def, err := predicate.Definitive(s, c, truth)
		if err != nil {
			t.Fatal(err)
		}
		if !def {
			t.Fatalf("asserted cause %v is not definitive for %v", c, truth)
		}
	}
	// With enough budget, the union of assertions covers the truth.
	eq, err := predicate.EquivalentDNF(s, got, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("DDT FindAll = %v, want equivalent to %v", got, truth)
	}
}

func TestDDTFindAllDisjunction(t *testing.T) {
	s := ddtSpace(t)
	truth := predicate.Or(
		predicate.And(predicate.T("x", predicate.Eq, pipeline.Ord(5))),
		predicate.And(
			predicate.T("c", predicate.Eq, pipeline.Cat("green")),
			predicate.T("y", predicate.Gt, pipeline.Ord(3)),
		),
	)
	ex := seededExecutor(t, s, truth, 11, 0)
	got, err := DebugDecisionTrees(context.Background(), ex, DDTOptions{
		Rand: rand.New(rand.NewSource(11)), FindAll: true, Simplify: true,
		MaxSuspectTests: 16, MaxIterations: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		def, err := predicate.Definitive(s, c, truth)
		if err != nil {
			t.Fatal(err)
		}
		if !def {
			t.Fatalf("asserted cause %v is not definitive", c)
		}
	}
	eq, err := predicate.EquivalentDNF(s, got, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("DDT FindAll = %v, want equivalent to %v", got, truth)
	}
}

func TestDDTFindOneStopsEarly(t *testing.T) {
	s := ddtSpace(t)
	truth := predicate.Or(
		predicate.And(predicate.T("x", predicate.Eq, pipeline.Ord(5))),
		predicate.And(predicate.T("c", predicate.Eq, pipeline.Cat("red"))),
	)
	ex := seededExecutor(t, s, truth, 13, 0)
	got, err := DebugDecisionTrees(context.Background(), ex, DDTOptions{
		Rand: rand.New(rand.NewSource(13)), FindAll: false, Simplify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("FindOne asserted %d causes (%v), want exactly 1", len(got), got)
	}
	def, err := predicate.Definitive(s, got[0], truth)
	if err != nil || !def {
		t.Fatalf("FindOne cause %v not definitive: %v", got[0], err)
	}
}

func TestDDTBudgetExhaustionReturnsPartial(t *testing.T) {
	s := ddtSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	// Seed without budget limits, then clamp hard.
	st := provenance.NewStore(s)
	ex0 := exec.New(truthOracle(truth), st)
	r := rand.New(rand.NewSource(17))
	if err := SeedHistory(context.Background(), ex0, r, 500); err != nil {
		t.Fatal(err)
	}
	ex := exec.New(truthOracle(truth), st, exec.WithBudget(2))
	got, err := DebugDecisionTrees(context.Background(), ex, DDTOptions{
		Rand: rand.New(rand.NewSource(17)), FindAll: true,
	})
	if err != nil {
		t.Fatalf("budget exhaustion must not error: %v", err)
	}
	if spent := ex.Spent(); spent > 2 {
		t.Fatalf("spent %d instances with budget 2", spent)
	}
	_ = got // partial or empty results are both acceptable
}

func TestDDTContextCancelled(t *testing.T) {
	s := ddtSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	ex := seededExecutor(t, s, truth, 19, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DebugDecisionTrees(ctx, ex, DDTOptions{}); err == nil {
		t.Fatal("cancelled context must propagate")
	}
}

func TestDDTHistoricalModeConfirmsFromEvidence(t *testing.T) {
	// Replay-only oracle: untestable suspects are asserted on the strength
	// of the recorded evidence (the paper's DBSherlock methodology).
	s := pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2)},
		pipeline.Parameter{Name: "b", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2)},
	)
	truth := predicate.Or(predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(1))))
	var ins []pipeline.Instance
	var outs []pipeline.Outcome
	// History covers (1,1) fail and (2,*) succeed; (1,2) is unknown.
	for _, v := range []struct{ a, b float64 }{{1, 1}, {2, 1}, {2, 2}} {
		in := pipeline.MustInstance(s, pipeline.Ord(v.a), pipeline.Ord(v.b))
		ins = append(ins, in)
		if truth.Satisfied(in) {
			outs = append(outs, pipeline.Fail)
		} else {
			outs = append(outs, pipeline.Succeed)
		}
	}
	oracle, err := exec.NewHistoricalOracle(ins, outs)
	if err != nil {
		t.Fatal(err)
	}
	st := provenance.NewStore(s)
	for i, in := range ins {
		if err := st.Add(in, outs[i], "history"); err != nil {
			t.Fatal(err)
		}
	}
	ex := exec.New(oracle, st)
	got, err := DebugDecisionTrees(context.Background(), ex, DDTOptions{
		Rand: rand.New(rand.NewSource(3)), FindAll: true, Simplify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("historical DDT = %v, want one cause", got)
	}
	eq, err := predicate.Equivalent(s, got[0], predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(1))))
	if err != nil || !eq {
		t.Fatalf("historical DDT cause = %v (err %v)", got[0], err)
	}
}

// Property-style sweep: for random planted single conjunctions, every DDT
// assertion is a hypothetical root cause with respect to the full evidence
// gathered (Definition 3): it covers at least one recorded failure and no
// recorded success. Definitive-ness is NOT guaranteed by the algorithm —
// verification samples the suspect's region, so rarely-succeeding
// sub-regions can escape (this is why DDT's precision is below 1.0 in
// Figure 2) — but consistency with all executed instances is.
func TestDDTSoundnessSweep(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		s := ddtSpace(t)
		var cause predicate.Conjunction
		switch r.Intn(3) {
		case 0:
			cause = predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(float64(1+r.Intn(3)))))
		case 1:
			cause = predicate.And(
				predicate.T("x", predicate.Gt, pipeline.Ord(float64(2+r.Intn(2)))),
				predicate.T("c", predicate.Eq, pipeline.Cat([]string{"red", "green", "blue"}[r.Intn(3)])),
			)
		default:
			cause = predicate.And(predicate.T("y", predicate.Eq, pipeline.Ord(float64(1+r.Intn(5)))))
		}
		truth := predicate.Or(cause)
		ex := seededExecutor(t, s, truth, int64(100+trial), 0)
		got, err := DebugDecisionTrees(context.Background(), ex, DDTOptions{
			Rand: rand.New(rand.NewSource(int64(trial))), FindAll: true, Simplify: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range got {
			succ, fail := ex.Store().CountSatisfying(c)
			if succ != 0 {
				t.Fatalf("trial %d: asserted %v covers %d recorded successes", trial, c, succ)
			}
			if fail == 0 {
				t.Fatalf("trial %d: asserted %v covers no recorded failure", trial, c)
			}
		}
	}
}

// TestDDTRegionOf2To64Instances pins the region-size overflow: 17
// parameters of 16 values give the suspect p00 = 3 a region of 16^16 =
// 2^64 instances, a product an unchecked uint64 wraps to 0, which once
// made the verification enumerate the region "exhaustively" without ever
// checking the context. The search runs in a goroutine so that the test
// fails at its deadline instead of hanging.
func TestDDTRegionOf2To64Instances(t *testing.T) {
	params := make([]pipeline.Parameter, 17)
	for i := range params {
		dom := make([]pipeline.Value, 16)
		for v := range dom {
			dom[v] = pipeline.Ord(float64(v))
		}
		params[i] = pipeline.Parameter{Name: fmt.Sprintf("p%02d", i), Kind: pipeline.Ordinal, Domain: dom}
	}
	s := pipeline.MustSpace(params...)
	truth := predicate.Or(predicate.And(predicate.T("p00", predicate.Eq, pipeline.Ord(3))))
	type result struct {
		got predicate.DNF
		err error
	}
	done := make(chan result, 1)
	go func() {
		ctx := context.Background()
		ex := exec.New(truthOracle(truth), provenance.NewStore(s))
		r := rand.New(rand.NewSource(1))
		if err := SeedHistory(ctx, ex, r, 0); err != nil {
			done <- result{err: err}
			return
		}
		got, err := DebugDecisionTrees(ctx, ex, DDTOptions{Rand: r, FindAll: true, Simplify: true})
		done <- result{got, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.got) != 1 {
			t.Fatalf("DDT FindAll = %v, want one cause", res.got)
		}
		def, err := predicate.Definitive(s, res.got[0], truth)
		if err != nil {
			t.Fatal(err)
		}
		if !def {
			t.Fatalf("asserted cause %v is not definitive for %v", res.got[0], truth)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DDT FindAll still running after 10s on a region of 2^64 instances")
	}
}

func TestSeedHistoryFailsOnConstantPipeline(t *testing.T) {
	s := ddtSpace(t)
	alwaysFail := exec.OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
		return pipeline.Fail, nil
	})
	ex := exec.New(alwaysFail, provenance.NewStore(s))
	err := SeedHistory(context.Background(), ex, rand.New(rand.NewSource(1)), 50)
	if err == nil {
		t.Fatal("all-fail pipeline cannot be seeded with both outcomes")
	}
}

func TestFindOneFindAllDrivers(t *testing.T) {
	s := ddtSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("c", predicate.Eq, pipeline.Cat("blue"))))
	ctx := context.Background()
	for _, algo := range []Algorithm{AlgoShortcut, AlgoStackedShortcut, AlgoDDT} {
		ex := seededExecutor(t, s, truth, 31, 0)
		got, err := FindOne(ctx, ex, algo, Options{Rand: rand.New(rand.NewSource(31))})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(got) == 0 {
			t.Fatalf("%v found nothing", algo)
		}
		for _, c := range got {
			def, err := predicate.Definitive(s, c, truth)
			if err != nil || !def {
				t.Fatalf("%v asserted non-definitive %v (err %v)", algo, c, err)
			}
		}
	}
	// FindAll with a shortcut algorithm degrades to FindOne.
	ex := seededExecutor(t, s, truth, 37, 0)
	got, err := FindAll(ctx, ex, AlgoShortcut, Options{Rand: rand.New(rand.NewSource(37))})
	if err != nil || len(got) == 0 {
		t.Fatalf("FindAll(Shortcut) = %v, %v", got, err)
	}
	if _, err := FindOne(ctx, ex, Algorithm(99), Options{}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgoShortcut.String() != "Shortcut" ||
		AlgoStackedShortcut.String() != "Stacked Shortcut" ||
		AlgoDDT.String() != "Debugging Decision Trees" {
		t.Fatal("algorithm names must match the paper")
	}
}
