// Package experiments regenerates every table and figure of the BugDoc
// paper's evaluation (Section 5): the Figure 2/3 precision-recall-F
// comparisons on synthetic pipelines, the Figure 4 conciseness measures,
// the Figure 5 instance-count scaling, the Figure 6 parallel scale-up, the
// Figure 7 real-world comparison, the DBSherlock classification accuracy,
// and the Table 1/2 walkthrough. Each experiment is a pure function of its
// configuration (seeded randomness), so runs are reproducible.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataxray"
	"repro/internal/exec"
	"repro/internal/exptables"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
	"repro/internal/smac"
	"repro/internal/synth"
)

// Method identifies one approach in the comparisons, named as in the
// paper's plots.
type Method string

// The seven methods of Figures 2 and 3.
const (
	MethodShortcut Method = "Shortcut"
	MethodStacked  Method = "Stacked Shortcut"
	MethodDDT      Method = "Debugging Decision Trees"
	MethodXRayBD   Method = "Data X-Ray (BugDoc insts)"
	MethodXRaySMAC Method = "Data X-Ray (SMAC insts)"
	MethodETBD     Method = "Expl. Tables (BugDoc insts)"
	MethodETSMAC   Method = "Expl. Tables (SMAC insts)"
)

// AllMethods lists the comparison methods in presentation order.
var AllMethods = []Method{
	MethodShortcut, MethodStacked, MethodDDT,
	MethodXRayBD, MethodXRaySMAC, MethodETBD, MethodETSMAC,
}

// BudgetGroup says which BugDoc algorithm's instance consumption sets the
// execution budget for every method in the group (the x-axis grouping of
// Figures 2 and 3).
type BudgetGroup string

// The three budget groups.
const (
	GroupShortcut BudgetGroup = "Shortcut budget"
	GroupStacked  BudgetGroup = "Stacked Shortcut budget"
	GroupDDT      BudgetGroup = "DDT budget"
)

// AllGroups lists the budget groups in presentation order.
var AllGroups = []BudgetGroup{GroupShortcut, GroupStacked, GroupDDT}

func (g BudgetGroup) algorithm() core.Algorithm {
	switch g {
	case GroupShortcut:
		return core.AlgoShortcut
	case GroupStacked:
		return core.AlgoStackedShortcut
	default:
		return core.AlgoDDT
	}
}

// problem bundles one debugging problem: a space, its black-box oracle, the
// ground truth for judging, and the shared seed provenance every method
// starts from.
type problem struct {
	space   *pipeline.Space
	oracle  exec.Oracle
	truth   predicate.DNF
	minimal []predicate.Conjunction
	seeds   []provenance.Record
}

// newProblem seeds initial history for a pipeline: random instances until
// both outcomes are present plus a disjoint good (core.SeedHistory), so all
// methods start from the same "previously-run instances".
func newProblem(ctx context.Context, space *pipeline.Space, oracle exec.Oracle,
	truth predicate.DNF, minimal []predicate.Conjunction, seed int64) (*problem, error) {
	return newProblemWithHistory(ctx, space, oracle, truth, minimal, seed, 0)
}

// newProblemWithHistory additionally samples extra random instances into
// the seed provenance. The real-world pipelines of Section 5.3 come with a
// substantial execution log (the paper debugs *given* instances, some of
// which crash), which multi-cause discovery depends on; the synthetic
// experiments keep the log minimal so the instance budget dominates.
func newProblemWithHistory(ctx context.Context, space *pipeline.Space, oracle exec.Oracle,
	truth predicate.DNF, minimal []predicate.Conjunction, seed int64, extra int, hints ...pipeline.Instance) (*problem, error) {
	ex := exec.New(oracle, provenance.NewStore(space))
	r := rand.New(rand.NewSource(seed))
	// Hints are known runs (typically a crashing instance from the user's
	// log); they are part of the given history, not of any budget.
	for _, h := range hints {
		if _, err := ex.Evaluate(ctx, h); err != nil {
			return nil, err
		}
	}
	if err := core.SeedHistory(ctx, ex, r, 2000); err != nil {
		return nil, err
	}
	if extra > 0 {
		// The extra history is one set of independent random instances:
		// dispatch it as a batch (memoized duplicates resolve for free).
		sample := make([]pipeline.Instance, extra)
		for i := range sample {
			sample[i] = space.RandomInstance(r)
		}
		for _, res := range ex.EvaluateBatch(ctx, sample) {
			if res.Err != nil {
				return nil, res.Err
			}
		}
	}
	return &problem{
		space:   space,
		oracle:  oracle,
		truth:   truth,
		minimal: minimal,
		seeds:   ex.Store().Snapshot().Records(),
	}, nil
}

// executor builds a fresh executor over the problem's seed history.
// budget < 0 means unlimited.
func (p *problem) executor(budget, workers int) (*exec.Executor, error) {
	st := provenance.NewStoreWithCapacity(p.space, len(p.seeds))
	if _, err := st.AddBatch(p.seeds); err != nil {
		return nil, err
	}
	opts := []exec.Option{exec.WithBudget(budget)}
	if workers > 1 {
		opts = append(opts, exec.WithWorkers(workers))
	}
	return exec.New(p.oracle, st, opts...), nil
}

// runBugDoc runs one BugDoc algorithm under a budget (-1 = unlimited) and
// returns the assertions, the executor (whose store holds the generated
// instances), and the number of new instances spent.
func (p *problem) runBugDoc(ctx context.Context, algo core.Algorithm, findAll bool, budget int, seed int64) (predicate.DNF, *exec.Executor, int, error) {
	ex, err := p.executor(budget, 1)
	if err != nil {
		return nil, nil, 0, err
	}
	opts := core.Options{Rand: rand.New(rand.NewSource(seed))}
	var got predicate.DNF
	if findAll {
		got, err = core.FindAll(ctx, ex, algo, opts)
	} else {
		got, err = core.FindOne(ctx, ex, algo, opts)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("experiments: %v: %w", algo, err)
	}
	return got, ex, ex.Spent(), nil
}

// runSMAC generates a SMAC-driven provenance store with maxNew instances.
func (p *problem) runSMAC(ctx context.Context, maxNew int, seed int64) (*exec.Executor, error) {
	ex, err := p.executor(maxNew, 1)
	if err != nil {
		return nil, err
	}
	if _, err := smac.Run(ctx, ex, maxNew, smac.Options{Rand: rand.New(rand.NewSource(seed))}); err != nil {
		return nil, err
	}
	return ex, nil
}

// newSynthProblem seeds a synthetic benchmark pipeline, planting one
// failing instance drawn from the ground-truth region so that the
// debugging precondition (a known crash) always holds.
func newSynthProblem(ctx context.Context, sp *synth.Pipeline, rgen *seedSequence) (*problem, error) {
	var hints []pipeline.Instance
	if in, ok := sp.SampleFailing(rgen.rand()); ok {
		hints = append(hints, in)
	}
	return newProblemWithHistory(ctx, sp.Space, sp.Oracle(), sp.Truth, sp.Minimal,
		rgen.next(), 0, hints...)
}

// explain runs one of the explanation baselines over a provenance store.
func explain(method Method, s *pipeline.Space, st *provenance.Store, seed int64) (predicate.DNF, error) {
	switch method {
	case MethodXRayBD, MethodXRaySMAC:
		return dataxray.Diagnose(s, st, dataxray.Options{})
	case MethodETBD, MethodETSMAC:
		table := exptables.Explain(s, st, exptables.Options{Rand: rand.New(rand.NewSource(seed))})
		return exptables.AsCauses(table), nil
	default:
		return nil, fmt.Errorf("experiments: %v is not an explanation baseline", method)
	}
}
