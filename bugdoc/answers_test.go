package bugdoc_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/bugdoc"
	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/synth"
)

// The tests in this file pin what the algorithms answer on two fixed pools
// of synthetic pipelines drawn from seed 1: the executions they spend and
// the precision and recall metrics.Judge gives their causes. The values do
// not depend on the machine, so they are exact gates: a change that means
// to change an answer updates the pin in the same diff and says so in
// CHANGES.md; any other change must leave them as they are.

// answerPin is one pool's pinned outcome.
type answerPin struct {
	execs             int
	precision, recall float64
}

func (p answerPin) check(t *testing.T, got answerPin) {
	t.Helper()
	if got.execs != p.execs ||
		math.Abs(got.precision-p.precision) > 1e-12 ||
		math.Abs(got.recall-p.recall) > 1e-12 {
		t.Fatalf("pool answers moved:\n got execs %d, precision %.17g, recall %.17g\nwant execs %d, precision %.17g, recall %.17g",
			got.execs, got.precision, got.recall, p.execs, p.precision, p.recall)
	}
}

// drawPipeline draws a disjunction-scenario pipeline with k parameters,
// redrawing any whose planted causes cover more than half the space. The
// bound is synth's own default, which synth enforces only when the
// space's size fits in 64 bits.
func drawPipeline(t *testing.T, r *rand.Rand, k int) *synth.Pipeline {
	t.Helper()
	for attempt := 0; attempt < 1000; attempt++ {
		p, err := synth.Generate(r, synth.Config{MinParams: k, MaxParams: k}, synth.Disjunction)
		if err != nil {
			t.Fatal(err)
		}
		// The sum of the conjuncts' shares bounds the covered share.
		share := 0.0
		for _, c := range p.Truth {
			reg, err := predicate.RegionOf(p.Space, c)
			if err != nil {
				t.Fatal(err)
			}
			f := 1.0
			for i := 0; i < p.Space.Len(); i++ {
				prm := p.Space.At(i)
				f *= float64(len(reg.AllowedValues(prm.Name))) / float64(len(prm.Domain))
			}
			share += f
		}
		if share <= 0.5 {
			return p
		}
	}
	t.Fatalf("no %d-parameter pipeline with at most half its space failing in 1000 draws", k)
	return nil
}

// truthOracle fails exactly the instances that satisfy the planted causes.
func truthOracle(truth predicate.DNF) bugdoc.OracleFunc {
	return func(_ context.Context, in bugdoc.Instance) (bugdoc.Outcome, error) {
		if truth.Satisfied(in) {
			return bugdoc.Fail, nil
		}
		return bugdoc.Succeed, nil
	}
}

// TestDDTAnswersPinned runs FindAll with Debugging Decision Trees on 130
// pipelines of 3 to 15 parameters, each session starting from one planted
// failing run on one worker: the inputs of the session benchmark's
// session-ddt workload.
func TestDDTAnswersPinned(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	var got answerPin
	var ag metrics.Aggregate
	for i := 0; i < 130; i++ {
		p := drawPipeline(t, r, 3+i%13)
		failing, ok := p.SampleFailing(r)
		if !ok {
			t.Fatalf("pipeline %d: no failing instance to plant", i)
		}
		s, err := bugdoc.NewSession(p.Space, truthOracle(p.Truth),
			bugdoc.WithHistory([]bugdoc.Record{{Instance: failing, Outcome: bugdoc.Fail, Source: "given"}}),
			bugdoc.WithSeed(r.Int63()),
			bugdoc.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Seed(ctx); err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		causes, err := s.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		got.execs += s.Spent()
		ev, err := metrics.Judge(p.Space, causes, p.Truth, p.Minimal)
		if err != nil {
			t.Fatal(err)
		}
		ag.Add(ev)
	}
	got.precision, got.recall = ag.FindAllPrecision(), ag.FindAllRecall()
	// 122 of 214 asserted causes are true minimal causes; 94 of the 260
	// planted causes are recovered.
	answerPin{execs: 8132, precision: 122.0 / 214, recall: 94.0 / 260}.check(t, got)
}

// TestStackedShortcutAnswersPinned runs FindOne with Stacked Shortcut on
// 32 pipelines of 8 to 15 parameters, each starting from a 500-run
// history on two workers: the inputs of the session benchmark's
// durable-resume workload, at a tenth of its history and in memory.
func TestStackedShortcutAnswersPinned(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	var got answerPin
	var ag metrics.Aggregate
	for i := 0; i < 32; i++ {
		p := drawPipeline(t, r, 8+i%8)
		failing, ok := p.SampleFailing(r)
		if !ok {
			t.Fatalf("pipeline %d: no failing instance to plant", i)
		}
		seen := make(map[uint64]bool)
		var hist []bugdoc.Record
		add := func(in bugdoc.Instance) {
			if seen[in.Hash()] {
				return
			}
			seen[in.Hash()] = true
			out, _ := truthOracle(p.Truth)(ctx, in)
			hist = append(hist, bugdoc.Record{Instance: in, Outcome: out, Source: "log"})
		}
		add(failing)
		for len(hist) < 500 {
			add(p.Space.RandomInstance(r))
		}
		s, err := bugdoc.NewSession(p.Space, truthOracle(p.Truth),
			bugdoc.WithHistory(hist),
			bugdoc.WithSeed(r.Int63()),
			bugdoc.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		causes, err := s.FindOne(ctx, bugdoc.StackedShortcut)
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		got.execs += s.Spent()
		ev, err := metrics.Judge(p.Space, causes, p.Truth, p.Minimal)
		if err != nil {
			t.Fatal(err)
		}
		ag.Add(ev)
	}
	got.precision, got.recall = ag.FindOnePrecision(), ag.FindOneRecall()
	// 15 of the 32 sessions find a true minimal cause, and the sessions
	// assert 6 false causes.
	answerPin{execs: 1467, precision: 15.0 / 21, recall: 15.0 / 32}.check(t, got)
}
