package bugdoc_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// ddtPin is the pinned outcome of the DDT pool at one session-seed
// offset: the executions its sessions spend, the true minimal causes
// among the causes they assert, and the planted causes they recover.
type ddtPin struct {
	offset                int64
	execs, hits, asserted int
	recovered, planted    int
}

// ddtPool runs FindAll with Debugging Decision Trees on 130 pipelines of
// 3 to 15 parameters, each session starting from one planted failing run
// on one worker: the inputs of the session benchmark's session-ddt
// workload. The pool is drawn from master seed 1 whatever the offset, so
// the pipelines and planted runs stay the same; the offset is added to
// each session's drawn seed.
func ddtPool(t *testing.T, offset int64) ddtPin {
	t.Helper()
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	got := ddtPin{offset: offset}
	var ag metrics.Aggregate
	for i := 0; i < 130; i++ {
		p := drawPipeline(t, r, 3+i%13)
		failing, ok := p.SampleFailing(r)
		if !ok {
			t.Fatalf("pipeline %d: no failing instance to plant", i)
		}
		s, err := bugdoc.NewSession(p.Space, truthOracle(p.Truth),
			bugdoc.WithHistory([]bugdoc.Record{{Instance: failing, Outcome: bugdoc.Fail, Source: "given"}}),
			bugdoc.WithSeed(r.Int63()+offset),
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
	got.hits, got.asserted = ag.TrueCauses, ag.Asserted
	got.recovered, got.planted = ag.MatchedActual, ag.ActualCauses
	return got
}

// TestDDTAnswersPinned pins the DDT pool (see ddtPool) at session-seed
// offsets 0 to 7. A change that only reshuffles the random stream moves
// the answers within the offsets' spread, which the test logs; a change
// that means to improve them should move the mean beyond it.
func TestDDTAnswersPinned(t *testing.T) {
	pins := []ddtPin{
		{offset: 0, execs: 8132, hits: 122, asserted: 214, recovered: 94, planted: 260},
		{offset: 1, execs: 9393, hits: 121, asserted: 223, recovered: 88, planted: 260},
		{offset: 2, execs: 7986, hits: 122, asserted: 206, recovered: 92, planted: 260},
		{offset: 3, execs: 8539, hits: 129, asserted: 219, recovered: 98, planted: 260},
		{offset: 4, execs: 8370, hits: 121, asserted: 204, recovered: 92, planted: 260},
		{offset: 5, execs: 8311, hits: 110, asserted: 196, recovered: 91, planted: 260},
		{offset: 6, execs: 8781, hits: 133, asserted: 222, recovered: 102, planted: 260},
		{offset: 7, execs: 8580, hits: 123, asserted: 212, recovered: 99, planted: 260},
	}
	var execs, precision, recall []float64
	for _, pin := range pins {
		t.Run(fmt.Sprintf("offset=%d", pin.offset), func(t *testing.T) {
			got := ddtPool(t, pin.offset)
			execs = append(execs, float64(got.execs)/130)
			precision = append(precision, float64(got.hits)/float64(got.asserted))
			recall = append(recall, float64(got.recovered)/float64(got.planted))
			if got != pin {
				t.Fatalf("pool answers moved:\n got %+v\nwant %+v", got, pin)
			}
		})
	}
	for _, m := range []struct {
		name string
		vals []float64
	}{{"executions per session", execs}, {"precision", precision}, {"recall", recall}} {
		mean := 0.0
		for _, v := range m.vals {
			mean += v
		}
		mean /= float64(len(m.vals))
		t.Logf("%s over %d offsets: mean %.3f, range %.3f–%.3f",
			m.name, len(m.vals), mean, slices.Min(m.vals), slices.Max(m.vals))
	}
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
