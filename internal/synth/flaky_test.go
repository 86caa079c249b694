package synth

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/predicate"
)

func flakyTestPipeline(t *testing.T, seed int64) *Pipeline {
	t.Helper()
	p, err := Generate(rand.New(rand.NewSource(seed)),
		Config{MinParams: 3, MaxParams: 4, MinValues: 4, MaxValues: 6}, SingleTriple)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFlakyOracleDeterministicPerSeed pins the reproducibility contract:
// two oracles with equal seeds over the same pipeline lie identically —
// the same (instance, trial ordinal) pairs flip — and a different seed
// corrupts a different trial set.
func TestFlakyOracleDeterministicPerSeed(t *testing.T) {
	p := flakyTestPipeline(t, 4)
	ctx := context.Background()
	run := func(seed uint64) []pipeline.Outcome {
		o := p.FlakyOracle(SymmetricNoise(0.3, seed))
		var outs []pipeline.Outcome
		r := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			in := p.Space.RandomInstance(r)
			for trial := 0; trial < 3; trial++ {
				out, err := o.Run(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
			}
		}
		return outs
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs across equal-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds corrupted identically across 120 trials")
	}
}

// TestFlakyOracleBiasDirections checks that each rate corrupts only its
// own verdict direction: FalseFailRate flips truly succeeding instances
// only, FalsePassRate truly failing ones only.
func TestFlakyOracleBiasDirections(t *testing.T) {
	p := flakyTestPipeline(t, 5)
	ctx := context.Background()
	cases := []struct {
		name       string
		cfg        FlakyConfig
		mayCorrupt pipeline.Outcome // the true verdict the noise may touch
	}{
		{"false-fail", FlakyConfig{FalseFailRate: 0.5, Seed: 7}, pipeline.Succeed},
		{"false-pass", FlakyConfig{FalsePassRate: 0.5, Seed: 7}, pipeline.Fail},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := p.FlakyOracle(c.cfg)
			r := rand.New(rand.NewSource(11))
			flipped := false
			for i := 0; i < 200; i++ {
				in := p.Space.RandomInstance(r)
				truth := pipeline.Succeed
				if p.Truth.Satisfied(in) {
					truth = pipeline.Fail
				}
				out, err := o.Run(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				if out != truth {
					flipped = true
					if truth != c.mayCorrupt {
						t.Fatalf("%s noise flipped a truly %v instance", c.name, truth)
					}
				}
			}
			if !flipped && o.Flips() == 0 {
				t.Fatalf("%s noise at rate 0.5 never corrupted in 200 trials", c.name)
			}
		})
	}
}

// TestFlakyOracleRegionGate confirms the per-parameter noise region:
// instances outside the conjunction are never corrupted.
func TestFlakyOracleRegionGate(t *testing.T) {
	p := flakyTestPipeline(t, 6)
	ctx := context.Background()
	// Gate the noise to one concrete value of the first parameter.
	par := p.Space.At(0)
	region := predicate.Conjunction{predicate.T(par.Name, predicate.Eq, par.Domain[0])}
	if err := region.Validate(p.Space); err != nil {
		t.Fatal(err)
	}
	cfg := SymmetricNoise(0.8, 21)
	cfg.Region = region
	o := p.FlakyOracle(cfg)
	r := rand.New(rand.NewSource(13))
	corruptInside := false
	for i := 0; i < 300; i++ {
		in := p.Space.RandomInstance(r)
		truth := pipeline.Succeed
		if p.Truth.Satisfied(in) {
			truth = pipeline.Fail
		}
		out, err := o.Run(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if out != truth {
			if !region.Satisfied(in) {
				t.Fatalf("instance outside the noise region was corrupted: %v", in)
			}
			corruptInside = true
		}
	}
	if !corruptInside {
		t.Fatal("no corruption inside the noise region in 300 trials at rate 0.8")
	}
	if o.Calls() != 300 {
		t.Fatalf("Calls = %d, want 300", o.Calls())
	}
}

// TestFlakyOracleTrialCounting checks the per-instance trial ordinal that
// keys the corruption draws: it advances per call and is queryable, and
// the query releases the oracle's lock (TryLock fails at once where a
// later Run would hang).
func TestFlakyOracleTrialCounting(t *testing.T) {
	p := flakyTestPipeline(t, 8)
	o := p.FlakyOracle(SymmetricNoise(0.1, 3))
	in := p.Space.RandomInstance(rand.New(rand.NewSource(1)))
	for i := 0; i < 5; i++ {
		if _, err := o.Run(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.TrialsFor(in); got != 5 {
		t.Fatalf("TrialsFor = %d, want 5", got)
	}
	if !o.mu.TryLock() {
		t.Fatal("TrialsFor left the oracle's lock held")
	}
	o.mu.Unlock()
	if got := o.Calls(); got != 5 {
		t.Fatalf("Calls = %d, want 5", got)
	}
}
