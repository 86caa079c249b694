package bugdoc_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/bugdoc"
)

func lrSpace(t *testing.T) *bugdoc.Space {
	t.Helper()
	return bugdoc.MustSpace(
		bugdoc.Parameter{Name: "lr", Kind: bugdoc.Ordinal, Domain: []bugdoc.Value{
			bugdoc.Ord(0.001), bugdoc.Ord(0.01), bugdoc.Ord(0.1), bugdoc.Ord(1),
		}},
		bugdoc.Parameter{Name: "opt", Kind: bugdoc.Categorical, Domain: []bugdoc.Value{
			bugdoc.Cat("sgd"), bugdoc.Cat("adam"), bugdoc.Cat("rmsprop"),
		}},
	)
}

// diverges fails when the learning rate is too high.
func diverges(_ context.Context, in bugdoc.Instance) (bugdoc.Outcome, error) {
	if lr, _ := in.ByName("lr"); lr.Num() > 0.01 {
		return bugdoc.Fail, nil
	}
	return bugdoc.Succeed, nil
}

func TestSessionEndToEnd(t *testing.T) {
	s := lrSpace(t)
	session, err := bugdoc.NewSession(s, bugdoc.OracleFunc(diverges),
		bugdoc.WithSeed(5), bugdoc.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := session.Seed(ctx); err != nil {
		t.Fatal(err)
	}
	causes, err := session.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) == 0 {
		t.Fatal("no causes asserted")
	}
	// Every asserted cause must only cover failing instances.
	for _, c := range causes {
		succ, fail := session.Store().CountSatisfying(c)
		if succ != 0 || fail == 0 {
			t.Fatalf("cause %v covers %d successes and %d failures", c, succ, fail)
		}
	}
	out := bugdoc.Explain(causes)
	if !strings.Contains(out, "root cause 1:") {
		t.Fatalf("Explain = %q", out)
	}
}

// TestSessionRepeatsExactly runs the same seeded search twice with four
// dispatch workers: concurrent dispatch must not perturb the search, so the
// asserted causes, the provenance size, and the budget spent must all be
// identical.
func TestSessionRepeatsExactly(t *testing.T) {
	ctx := context.Background()
	run := func() (bugdoc.DNF, int, int) {
		t.Helper()
		session, err := bugdoc.NewSession(lrSpace(t), bugdoc.OracleFunc(diverges),
			bugdoc.WithSeed(5), bugdoc.WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := session.Seed(ctx); err != nil {
			t.Fatal(err)
		}
		causes, err := session.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
		if err != nil {
			t.Fatal(err)
		}
		return causes, session.Store().Len(), session.Spent()
	}
	causes1, len1, spent1 := run()
	causes2, len2, spent2 := run()
	if len2 != len1 || spent2 != spent1 {
		t.Fatalf("second run: %d records / %d spent, first %d / %d", len2, spent2, len1, spent1)
	}
	if bugdoc.Explain(causes2) != bugdoc.Explain(causes1) {
		t.Fatalf("second run asserted %vvs first %v", bugdoc.Explain(causes2), bugdoc.Explain(causes1))
	}
}

func TestSessionBudget(t *testing.T) {
	s := lrSpace(t)
	session, err := bugdoc.NewSession(s, bugdoc.OracleFunc(diverges),
		bugdoc.WithSeed(5), bugdoc.WithBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_ = session.Seed(ctx) // may exhaust budget; that's fine
	_, err = session.FindOne(ctx, bugdoc.Shortcut)
	// Budget exhaustion surfaces as empty results or missing seeds, never
	// as a panic; spent can never exceed the budget.
	if spent := session.Spent(); spent > 4 {
		t.Fatalf("spent %d > budget 4 (err %v)", spent, err)
	}
}

func TestSessionHistory(t *testing.T) {
	s := lrSpace(t)
	failing := bugdoc.MustInstance(s, bugdoc.Ord(1), bugdoc.Cat("sgd"))
	good := bugdoc.MustInstance(s, bugdoc.Ord(0.001), bugdoc.Cat("adam"))
	session, err := bugdoc.NewSession(s, bugdoc.OracleFunc(diverges),
		bugdoc.WithHistory([]bugdoc.Record{
			{Instance: failing, Outcome: bugdoc.Fail, Source: "history"},
			{Instance: good, Outcome: bugdoc.Succeed, Source: "history"},
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	causes, err := session.FindOne(ctx, bugdoc.Shortcut)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) != 1 {
		t.Fatalf("causes = %v", causes)
	}
	want := bugdoc.T("lr", bugdoc.Eq, bugdoc.Ord(1))
	if len(causes[0]) != 1 || causes[0][0] != want {
		t.Fatalf("cause = %v, want {%v}", causes[0], want)
	}
}

// TestSeedPaysOnlyForAMissingDisjointRun pins what Seed spends on a
// history that already holds both outcomes: nothing when a succeeding run
// disjoint from the failing one is recorded; otherwise at least one
// execution looking for one, and none past the budget.
func TestSeedPaysOnlyForAMissingDisjointRun(t *testing.T) {
	s := lrSpace(t)
	ctx := context.Background()
	failing := bugdoc.MustInstance(s, bugdoc.Ord(1), bugdoc.Cat("sgd"))
	history := func(good bugdoc.Instance) bugdoc.Option {
		return bugdoc.WithHistory([]bugdoc.Record{
			{Instance: failing, Outcome: bugdoc.Fail, Source: "history"},
			{Instance: good, Outcome: bugdoc.Succeed, Source: "history"},
		})
	}

	disjoint := bugdoc.MustInstance(s, bugdoc.Ord(0.001), bugdoc.Cat("adam"))
	session, err := bugdoc.NewSession(s, bugdoc.OracleFunc(diverges), history(disjoint))
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Seed(ctx); err != nil || session.Spent() != 0 {
		t.Fatalf("with a disjoint succeeding run recorded, Seed spent %d (err %v), want 0", session.Spent(), err)
	}

	// The succeeding run shares opt = "sgd", and the oracle fails every
	// new run, so only the budget ends the search for a disjoint one.
	const budget = 3
	failsAll := func(context.Context, bugdoc.Instance) (bugdoc.Outcome, error) { return bugdoc.Fail, nil }
	sharing := bugdoc.MustInstance(s, bugdoc.Ord(0.001), bugdoc.Cat("sgd"))
	session, err = bugdoc.NewSession(s, bugdoc.OracleFunc(failsAll), history(sharing), bugdoc.WithBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Seed(ctx); err != nil {
		t.Fatal(err)
	}
	if spent := session.Spent(); spent < 1 || spent > budget {
		t.Fatalf("with no disjoint succeeding run, Seed spent %d, want 1..%d", spent, budget)
	}
}

// TestWithHistoryLeavesCallerSliceAlone records two WithHistory options,
// the first over a slice with spare capacity: both histories are recorded
// in order, and the second never lands in the first caller's spare
// element.
func TestWithHistoryLeavesCallerSliceAlone(t *testing.T) {
	s := lrSpace(t)
	in := func(lr float64, opt string) bugdoc.Instance {
		return bugdoc.MustInstance(s, bugdoc.Ord(lr), bugdoc.Cat(opt))
	}
	spare := in(0.1, "rmsprop")
	backing := []bugdoc.Record{
		{Instance: in(1, "sgd"), Outcome: bugdoc.Fail, Source: "first"},
		{Instance: in(0.001, "adam"), Outcome: bugdoc.Succeed, Source: "first"},
		{Instance: spare, Outcome: bugdoc.Fail, Source: "spare"},
	}
	first := backing[:2]
	second := []bugdoc.Record{{Instance: in(0.01, "sgd"), Outcome: bugdoc.Succeed, Source: "second"}}
	session, err := bugdoc.NewSession(s, bugdoc.OracleFunc(diverges),
		bugdoc.WithHistory(first), bugdoc.WithHistory(second))
	if err != nil {
		t.Fatal(err)
	}
	if r := backing[2]; !r.Instance.Equal(spare) || r.Outcome != bugdoc.Fail || r.Source != "spare" {
		t.Fatalf("the caller's spare element became %v %v %q", r.Instance, r.Outcome, r.Source)
	}
	want := append(first[:2:2], second...)
	got := session.Store().Snapshot().Records()
	if len(got) != len(want) {
		t.Fatalf("recorded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Instance.Equal(want[i].Instance) || got[i].Outcome != want[i].Outcome || got[i].Source != want[i].Source {
			t.Fatalf("record %d = %v %v %q, want %v %v %q", i,
				got[i].Instance, got[i].Outcome, got[i].Source, want[i].Instance, want[i].Outcome, want[i].Source)
		}
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := bugdoc.NewSession(nil, bugdoc.OracleFunc(diverges)); err == nil {
		t.Fatal("nil space must fail")
	}
	if _, err := bugdoc.NewSession(lrSpace(t), nil); err == nil {
		t.Fatal("nil oracle must fail")
	}
	// Duplicate history records are rejected.
	s := lrSpace(t)
	in := bugdoc.MustInstance(s, bugdoc.Ord(1), bugdoc.Cat("sgd"))
	_, err := bugdoc.NewSession(s, bugdoc.OracleFunc(diverges),
		bugdoc.WithHistory([]bugdoc.Record{
			{Instance: in, Outcome: bugdoc.Fail},
			{Instance: in, Outcome: bugdoc.Fail},
		}))
	if err == nil {
		t.Fatal("duplicate history must fail")
	}
	// So are they on a durable session, even with conflicting outcomes, and
	// before anything is logged.
	dir := t.TempDir()
	_, err = bugdoc.NewSession(s, bugdoc.OracleFunc(diverges), bugdoc.WithDurability(dir),
		bugdoc.WithHistory([]bugdoc.Record{
			{Instance: in, Outcome: bugdoc.Fail},
			{Instance: in, Outcome: bugdoc.Succeed},
		}))
	if err == nil {
		t.Fatal("duplicate durable history must fail")
	}
	resumed, err := bugdoc.ResumeSession(dir, bugdoc.OracleFunc(diverges))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if n := resumed.Store().Len(); n != 0 {
		t.Fatalf("rejected history logged %d records", n)
	}
	// An invalid flaky policy fails a durable session before its log is
	// opened, so the state directory stays empty.
	empty := t.TempDir()
	_, err = bugdoc.NewSession(s, bugdoc.OracleFunc(diverges), bugdoc.WithDurability(empty),
		bugdoc.WithFlakyPolicy(bugdoc.FlakyPolicy{MinTrials: 4, MaxTrials: 2, Quorum: 1}))
	if err == nil {
		t.Fatal("invalid flaky policy must fail")
	}
	if ents, err := os.ReadDir(empty); err != nil || len(ents) != 0 {
		t.Fatalf("rejected session left %d entries in its state directory (%v)", len(ents), err)
	}
}

func TestExplainEmpty(t *testing.T) {
	if got := bugdoc.Explain(nil); !strings.Contains(got, "no definitive root cause") {
		t.Fatalf("Explain(nil) = %q", got)
	}
}
