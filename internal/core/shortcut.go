// Package core implements BugDoc's debugging algorithms (Section 4 of the
// paper): the Shortcut algorithm (Algorithm 1), the Stacked Shortcut
// algorithm (Algorithm 2), and the Debugging Decision Trees algorithm,
// together with the FindOne/FindAll drivers and explanation simplification.
//
// All algorithms observe pipelines strictly through an exec.Executor: they
// read the provenance of previously-run instances and selectively execute
// new ones, which is the paper's cost measure.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/grouptest"
	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// Shortcut runs Algorithm 1: starting from failing instance cpf and a
// succeeding instance cpg (ideally disjoint from cpf — the Disjointness
// Condition), it substitutes cpg's values into the current instance and
// keeps a substitution whenever the modified instance still fails. The
// parameter-values of cpf remaining in the final instance form the asserted
// minimal definitive root cause D.
//
// The paper substitutes one parameter at a time, one execution for every
// parameter where cpf and cpg differ. Shortcut substitutes groups of them
// instead, by adaptive binary splitting (grouptest.SplitDepthFirst): it
// tests the whole group of differing parameters, keeps a group's
// substitution when the candidate still fails, and otherwise splits the
// group in halves, searching the first half to completion before the
// second. A single parameter whose substitution does not fail keeps cpf's
// value, as in the paper. The first group is cpg itself, which provenance
// already holds, so it costs no execution. A pass over d differing
// parameters costs at most 2d − 1 executions, where the paper's pass
// costs d; the worst case shows when most of them keep cpf's value, as in
// tiny spaces. When c of them keep it, a pass costs O(c log d), because
// every group without one keeps its substitution whole. Under a
// single-conjunction truth and no budget, a group keeps the failure
// exactly when each of its parameters does, so the answer is the paper's.
//
// Per the algorithm's final sanity check, Shortcut returns an empty
// conjunction when some already-executed successful instance contains D
// (it then found only a proper subset of a real root cause).
//
// Execution errors are tolerated per the black-box model: a group whose
// instance cannot be run (exhausted budget, absent from historical data)
// is split like one whose substitution succeeds, so a single parameter
// that cannot be tested keeps cpf's value. A nil error with an empty
// conjunction therefore means "refuted by the sanity check", never "could
// not run".
func Shortcut(ctx context.Context, ex *exec.Executor, cpf, cpg pipeline.Instance) (predicate.Conjunction, error) {
	s := cpf.Space()
	if cpg.Space() != s {
		return nil, fmt.Errorf("core: cpf and cpg belong to different spaces")
	}
	if out, ok := ex.Store().Lookup(cpf); !ok || out != pipeline.Fail {
		return nil, fmt.Errorf("core: cpf %v is not a recorded failing instance", cpf)
	}
	if out, ok := ex.Store().Lookup(cpg); !ok || out != pipeline.Succeed {
		return nil, fmt.Errorf("core: cpg %v is not a recorded succeeding instance", cpg)
	}

	// Parameters where cpg agrees with cpf have nothing to substitute
	// (heuristic mode, when the pair is not disjoint).
	diff := make([]int, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		if cpf.Code(i) != cpg.Code(i) {
			diff = append(diff, i)
		}
	}
	current := cpf
	// A test is positive when the group cannot keep cpg's values: the
	// candidate did not fail, or could not be run.
	test := func(lo, hi int) (bool, error) {
		codes := make([]uint32, s.Len())
		for i := range codes {
			codes[i] = current.Code(i)
		}
		for _, i := range diff[lo:hi] {
			codes[i] = cpg.Code(i)
		}
		candidate, err := s.InstanceOfCodes(codes)
		if err != nil {
			return false, err
		}
		ex.Telemetry().Decision()
		out, err := ex.Evaluate(ctx, candidate)
		switch {
		case err == nil:
			if out == pipeline.Fail {
				// cpf's values for this group did not cause the failure.
				current = candidate
				return false, nil
			}
			return true, nil
		case errors.Is(err, exec.ErrBudgetExhausted),
			errors.Is(err, exec.ErrUnknownInstance):
			// Untestable: split, and keep cpf's value in a single parameter.
			return true, nil
		default:
			return false, err
		}
	}
	if _, _, err := grouptest.SplitDepthFirst(ctx, len(diff), test); err != nil {
		return nil, err
	}

	// D <- current ∩ cpf: the surviving parameter-value pairs of cpf.
	var d predicate.Conjunction
	for i := 0; i < s.Len(); i++ {
		if current.Code(i) == cpf.Code(i) {
			d = append(d, predicate.T(s.At(i).Name, predicate.Eq, cpf.Value(i)))
		}
	}
	// Sanity check: a successful execution containing D refutes it.
	if _, found := ex.Store().AnySucceedingSatisfying(d); found {
		return predicate.Conjunction{}, nil
	}
	return d.Canonical(), nil
}
