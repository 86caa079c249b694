package core

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// DefaultStackedGoods is the number of disjoint successful instances the
// Stacked Shortcut algorithm runs against by default (the paper's
// experiments use "Stacked Shortcut with four shortcuts").
const DefaultStackedGoods = 4

// StackedShortcut runs Algorithm 2: it takes one failing instance CP_f, the
// earliest recorded, and up to k succeeding instances CP_G that are
// disjoint from CP_f and mutually disjoint where possible, runs Shortcut
// against each, and returns the union of the asserted root causes. By
// Theorem 5, with k mutually disjoint goods and at most k distinct minimal
// definitive root causes the result is never a truncated assertion.
//
// When provenance lacks k mutually disjoint succeeding instances, the
// remaining slots are filled with the most-different succeeding instances
// ("even if all successful instances are not mutually disjoint ... each
// additional call to shortcut reduces the likelihood of yielding a
// truncated assertion"). With k = 1 this is Algorithm 1 against the
// earliest succeeding instance disjoint from CP_f, or else the earliest
// of those differing from it on the most parameters: FindOne runs
// AlgoShortcut that way.
func StackedShortcut(ctx context.Context, ex *exec.Executor, k int) (predicate.Conjunction, error) {
	if k < 1 {
		k = DefaultStackedGoods
	}
	cpf, ok := ex.Store().FirstFailing()
	if !ok {
		return nil, fmt.Errorf("core: provenance has no failing instance")
	}
	goods := ex.Store().MutuallyDisjointSucceeding(cpf, k)
	if len(goods) == 0 {
		return nil, fmt.Errorf("core: provenance has no succeeding instance")
	}
	return StackedShortcutWith(ctx, ex, cpf, goods)
}

// StackedShortcutWith runs the stacked algorithm against an explicit CP_f
// and good set, unioning the per-call assertions. Under a bounded budget,
// a further shortcut pass only starts while the budget covers the pass's
// worst case, 2d − 1 executions for the d parameters where CP_f and the
// good differ (see Shortcut) — a pass cut short would keep untested CP_f
// values and bloat the union with unverified conditions. The guard counts
// one budget unit per execution, as a deterministic oracle spends them;
// under a flaky policy one instance can take several units, so a pass can
// still run out.
func StackedShortcutWith(ctx context.Context, ex *exec.Executor, cpf pipeline.Instance, goods []pipeline.Instance) (predicate.Conjunction, error) {
	var union predicate.Conjunction
	for i, cpg := range goods {
		if i > 0 {
			if remaining, bounded := ex.Remaining(); bounded && remaining < 2*cpf.DiffCount(cpg)-1 {
				break
			}
		}
		d, err := Shortcut(ctx, ex, cpf, cpg)
		if err != nil {
			return nil, err
		}
		union = append(union, d...)
	}
	union = union.Canonical()
	if len(union) == 0 {
		return predicate.Conjunction{}, nil
	}
	// Re-run the sanity check against the final provenance: later shortcut
	// passes may have executed a succeeding instance that contains the
	// union (which would make the assertion refuted, not definitive).
	if _, found := ex.Store().AnySucceedingSatisfying(union); found {
		return predicate.Conjunction{}, nil
	}
	return union, nil
}
