package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// Algorithm selects which BugDoc debugging algorithm a driver runs.
type Algorithm uint8

const (
	// AlgoShortcut is Algorithm 1 (single shortcut pass).
	AlgoShortcut Algorithm = iota + 1
	// AlgoStackedShortcut is Algorithm 2 (union over k disjoint goods).
	AlgoStackedShortcut
	// AlgoDDT is the Debugging Decision Trees algorithm of Section 4.2.
	AlgoDDT
)

// String names the algorithm the way the paper's plots do.
func (a Algorithm) String() string {
	switch a {
	case AlgoShortcut:
		return "Shortcut"
	case AlgoStackedShortcut:
		return "Stacked Shortcut"
	case AlgoDDT:
		return "Debugging Decision Trees"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// SeedHistory makes sure the provenance contains at least one failing and
// one succeeding instance — the precondition of every BugDoc algorithm —
// by sampling random instances, and then tries (best effort) to record a
// succeeding instance disjoint from the first failing one so that the
// Disjointness Condition holds. It returns an error when maxAttempts
// samples cannot produce both outcomes (e.g. pipelines that always fail).
func SeedHistory(ctx context.Context, ex *exec.Executor, r *rand.Rand, maxAttempts int) error {
	s := ex.Store().Space()
	if maxAttempts <= 0 {
		maxAttempts = 200
	}
	succ, fail := ex.Store().Outcomes()
	for attempts := 0; (succ == 0 || fail == 0) && attempts < maxAttempts; attempts++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := ex.Evaluate(ctx, s.RandomInstance(r))
		if err != nil {
			if errors.Is(err, exec.ErrUnknownInstance) {
				continue
			}
			return err
		}
		switch out {
		case pipeline.Succeed:
			succ++
		case pipeline.Fail:
			fail++
		}
	}
	if succ == 0 || fail == 0 {
		return fmt.Errorf("core: could not seed history with both outcomes (%d succeed, %d fail)", succ, fail)
	}
	cpf, _ := ex.Store().FirstFailing()
	if goods := ex.Store().MutuallyDisjointSucceeding(cpf, 1); len(goods) > 0 && goods[0].DisjointFrom(cpf) {
		return nil
	}
	for attempts := 0; attempts < maxAttempts; attempts++ {
		cand, ok := s.RandomDisjoint(r, cpf)
		if !ok {
			return nil // no disjoint instance exists; heuristic mode applies
		}
		out, err := ex.Evaluate(ctx, cand)
		if err != nil {
			if errors.Is(err, exec.ErrUnknownInstance) || errors.Is(err, exec.ErrBudgetExhausted) {
				return nil
			}
			return err
		}
		if out == pipeline.Succeed && cand.DisjointFrom(cpf) {
			return nil
		}
	}
	return nil // best effort: Shortcut falls back to the most-different good
}

// Options configures the FindOne/FindAll drivers.
type Options struct {
	// Rand drives the Debugging Decision Trees' test sampling;
	// deterministic default when nil.
	Rand *rand.Rand
}

// FindOne runs the selected algorithm to assert at least one minimal
// definitive root cause (goal (i) of the problem definition). The result
// may be empty when the algorithm refutes its own assertion or runs out of
// budget.
func FindOne(ctx context.Context, ex *exec.Executor, algo Algorithm, opts Options) (predicate.DNF, error) {
	switch algo {
	case AlgoShortcut, AlgoStackedShortcut:
		k := 1 // Algorithm 1 is Algorithm 2 over one good run
		if algo == AlgoStackedShortcut {
			k = DefaultStackedGoods
		}
		d, err := StackedShortcut(ctx, ex, k)
		if err != nil {
			return nil, err
		}
		return wrapConjunction(d), nil
	case AlgoDDT:
		return DebugDecisionTrees(ctx, ex, DDTOptions{Rand: opts.Rand, Simplify: true})
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}

// FindAll runs the Debugging Decision Trees algorithm to assert all minimal
// definitive root causes it can confirm (goal (ii)). The shortcut
// algorithms assert a single conjunction by design, so FindAll with a
// shortcut algorithm returns that one assertion.
func FindAll(ctx context.Context, ex *exec.Executor, algo Algorithm, opts Options) (predicate.DNF, error) {
	if algo != AlgoDDT {
		return FindOne(ctx, ex, algo, opts)
	}
	return DebugDecisionTrees(ctx, ex, DDTOptions{Rand: opts.Rand, FindAll: true, Simplify: true})
}

func wrapConjunction(c predicate.Conjunction) predicate.DNF {
	if len(c) == 0 {
		return predicate.DNF{}
	}
	return predicate.DNF{c}
}
