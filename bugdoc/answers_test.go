package bugdoc_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/bugdoc"
	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/synth"
)

// The tests in this file pin what the algorithms answer on fixed pools of
// synthetic pipelines drawn from master seeds: the executions they spend
// and the precision and recall metrics.Judge gives their causes. The values do
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

// findOnePin is one FindOne pool's pinned outcome: the executions the
// sessions spend, the sessions that find a true minimal cause, and the
// false causes they assert.
type findOnePin struct {
	seed                  int64
	execs, hits, falsePos int
}

// check compares the pool's answers with the pin, deriving precision and
// recall as metrics.Aggregate does over the pool's 32 sessions.
func (p findOnePin) check(t *testing.T, got answerPin) {
	t.Helper()
	answerPin{
		execs:     p.execs,
		precision: float64(p.hits) / float64(p.hits+p.falsePos),
		recall:    float64(p.hits) / 32,
	}.check(t, got)
}

// findOnePool runs FindOne with algo on 32 pipelines of 8 to 15
// parameters drawn from seed, each session starting from a 500-run history
// on two workers: the inputs of the session benchmark's durable-resume
// workload, at a tenth of its history and in memory. Neither Shortcut nor
// Stacked Shortcut draws from the session's random source, so only the
// master seed makes pools differ.
func findOnePool(t *testing.T, seed int64, algo bugdoc.Algorithm) answerPin {
	t.Helper()
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))
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
		causes, err := s.FindOne(ctx, algo)
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
	return got
}

// TestStackedShortcutAnswersPinned runs FindOne with Stacked Shortcut on
// the pools of master seeds 1 to 8 (see findOnePool).
func TestStackedShortcutAnswersPinned(t *testing.T) {
	for _, pin := range []findOnePin{
		{seed: 1, execs: 862, hits: 15, falsePos: 6},
		{seed: 2, execs: 812, hits: 19, falsePos: 8},
		{seed: 3, execs: 853, hits: 17, falsePos: 7},
		{seed: 4, execs: 810, hits: 19, falsePos: 4},
		{seed: 5, execs: 880, hits: 24, falsePos: 3},
		{seed: 6, execs: 852, hits: 18, falsePos: 8},
		{seed: 7, execs: 912, hits: 22, falsePos: 6},
		{seed: 8, execs: 824, hits: 18, falsePos: 7},
	} {
		t.Run(fmt.Sprintf("seed=%d", pin.seed), func(t *testing.T) {
			pin.check(t, findOnePool(t, pin.seed, bugdoc.StackedShortcut))
		})
	}
}

// TestShortcutAnswersPinned runs FindOne with Shortcut on the pools of
// master seeds 1 to 8 (see findOnePool).
func TestShortcutAnswersPinned(t *testing.T) {
	for _, pin := range []findOnePin{
		{seed: 1, execs: 214, hits: 10, falsePos: 7},
		{seed: 2, execs: 210, hits: 14, falsePos: 10},
		{seed: 3, execs: 212, hits: 12, falsePos: 5},
		{seed: 4, execs: 205, hits: 15, falsePos: 4},
		{seed: 5, execs: 223, hits: 17, falsePos: 5},
		{seed: 6, execs: 213, hits: 12, falsePos: 9},
		{seed: 7, execs: 237, hits: 20, falsePos: 4},
		{seed: 8, execs: 211, hits: 16, falsePos: 5},
	} {
		t.Run(fmt.Sprintf("seed=%d", pin.seed), func(t *testing.T) {
			pin.check(t, findOnePool(t, pin.seed, bugdoc.Shortcut))
		})
	}
}
