package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dbsherlock"
	"repro/internal/synth"
)

// smallSynth keeps experiment tests fast; the cmd harness uses the paper's
// full ranges.
var smallSynth = synth.Config{MinParams: 3, MaxParams: 5, MinValues: 4, MaxValues: 6}

func TestFig2SmallRun(t *testing.T) {
	res, err := Fig23(context.Background(), Fig23Config{
		Scenario:  synth.SingleTriple,
		Pipelines: 3,
		Seed:      7,
		Synth:     smallSynth,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range AllGroups {
		for _, m := range AllMethods {
			c, ok := res.Cells[g][m]
			if !ok {
				t.Fatalf("missing cell %v/%v", g, m)
			}
			if c.Precision < 0 || c.Precision > 1 || c.Recall < 0 || c.Recall > 1 {
				t.Fatalf("cell %v/%v out of range: %+v", g, m, c)
			}
		}
		if res.AvgBudget[g] < 0 {
			t.Fatalf("negative budget for %v", g)
		}
	}
	// Shape check: in the single-triple scenario BugDoc's own algorithms
	// must dominate the SMAC-fed baselines on F-measure under the DDT
	// budget (the paper's headline claim).
	ddt := res.Cells[GroupDDT]
	for _, bugdoc := range []Method{MethodDDT} {
		for _, baseline := range []Method{MethodXRaySMAC, MethodETSMAC} {
			if ddt[bugdoc].F < ddt[baseline].F {
				t.Errorf("%v F=%.3f below %v F=%.3f", bugdoc, ddt[bugdoc].F, baseline, ddt[baseline].F)
			}
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "Shortcut") {
		t.Fatalf("render output incomplete:\n%s", out)
	}
}

func TestFig3SmallRun(t *testing.T) {
	res, err := Fig23(context.Background(), Fig23Config{
		Scenario:  synth.Disjunction,
		Pipelines: 2,
		Seed:      11,
		FindAll:   true,
		Synth:     smallSynth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Fatal("FindAll run must render as Figure 3")
	}
}

func TestFig4SmallRun(t *testing.T) {
	res, err := Fig4(context.Background(), Fig4Config{Pipelines: 2, Seed: 13, Synth: smallSynth})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMethods {
		if res.ParamsPerCause[m] < 0 {
			t.Fatalf("negative conciseness for %v", m)
		}
	}
	if !strings.Contains(res.Render(), "Figure 4a") {
		t.Fatal("render incomplete")
	}
}

func TestFig5SmallRun(t *testing.T) {
	res, err := Fig5(context.Background(), Fig5Config{
		ParamCounts:  []int{3, 6, 9},
		PipelinesPer: 3,
		Seed:         17,
		MinValues:    4,
		MaxValues:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shortcut's group search spends at most 2|diff| − 1 executions on a
	// pass over the |diff| <= |P| parameters where CP_f and CP_g differ:
	// instances must grow with the parameter count and stay within
	// 2|P| − 1.
	curve := res.Curves[MethodShortcut]
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	if curve[2].Instances <= curve[0].Instances {
		t.Fatalf("Shortcut instances must grow with |P|: %+v", curve)
	}
	for _, pt := range curve {
		if pt.Instances > float64(2*pt.Params-1) {
			t.Fatalf("Shortcut used %.1f instances for %d parameters (must be <= 2|P| - 1)",
				pt.Instances, pt.Params)
		}
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Fatal("render incomplete")
	}
}

func TestFig6SmallRun(t *testing.T) {
	res, err := Fig6(context.Background(), Fig6Config{
		Workers: []int{1, 4},
		Latency: 3 * time.Millisecond,
		Seed:    19,
		Synth:   smallSynth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[1].Speedup <= 1.0 {
		t.Fatalf("4 workers should beat 1 worker: %+v", res.Points)
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Fatal("render incomplete")
	}
}

func TestFig7SmallRun(t *testing.T) {
	res, err := Fig7(context.Background(), Fig7Config{
		Seed:              23,
		DBSherlockClasses: 1,
		Corpus:            dbsherlock.Config{NormalWindows: 80, AnomalousPerClass: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3*len(Fig7Methods) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 3*len(Fig7Methods))
	}
	// Shape: BugDoc recall on the exact-truth pipelines must be 1.0
	// ("BugDoc methods found all the parameter-comparator-value triples").
	for _, row := range res.Rows {
		if row.Method == MethodBugDocCombined && row.Pipeline != "DBSherlock (OLTP logs)" {
			if row.Recall < 1.0 {
				t.Errorf("%s: BugDoc recall = %.2f, want 1.0", row.Pipeline, row.Recall)
			}
		}
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Fatal("render incomplete")
	}
}

func TestDBSherlockAccuracySmallRun(t *testing.T) {
	res, err := DBSherlockAccuracy(context.Background(), DBSherlockConfig{
		Seed:    29,
		Classes: 2,
		Corpus:  dbsherlock.Config{NormalWindows: 80, AnomalousPerClass: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Mean < 0.85 {
		t.Fatalf("mean accuracy %.2f < 0.85 (paper reports 98%%)", res.Mean)
	}
	if !strings.Contains(res.Render(), "DBSherlock") {
		t.Fatal("render incomplete")
	}
}

func TestTables12(t *testing.T) {
	res, err := Tables12(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table1) != 3 {
		t.Fatalf("Table 1 has %d rows", len(res.Table1))
	}
	if len(res.Table2) != 5 {
		t.Fatalf("Table 2 has %d rows (3 seed + 2 new via memoization), got %v", len(res.Table2), res.Table2)
	}
	if got := res.RootCause.String(); got != `LibraryVersion = "2.0"` {
		t.Fatalf("root cause = %q", got)
	}
	out := res.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Gradient Boosting") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}
