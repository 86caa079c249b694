// Package grouptest implements adaptive group testing: it finds the
// defective elements among n by testing groups of them, splitting only the
// groups that test positive.
//
// One splitter, SplitDepthFirst, serves two searches. The Shortcut
// algorithm (internal/core) substitutes a succeeding instance's values
// onto a failing one a group of parameters at a time: a parameter is
// defective when its substitution ends the failure. The data-elements
// example (examples/dataelements) runs the extension sketched in the
// paper's conclusion: "we would like to explore group testing to identify
// problematic data elements when a dataset has been identified as a root
// cause". When BugDoc asserts that an input dataset causes the failure,
// the next question is *which rows* of that dataset are to blame;
// re-running the pipeline once per row is prohibitive, so the example runs
// it on row subsets instead.
//
// Both find exactly the defectives under the standard group-testing
// premise, which matches BugDoc's definitive-cause semantics: a test of a
// subset of elements is positive iff the subset contains at least one
// defective element. Under that premise, adaptive binary splitting finds
// all d defectives among n elements in O(d log n) tests. SplitDepthFirst
// makes at most 2n − 1 tests whatever its tests report; Shortcut relies
// on that bound, because its substitutions can interact when a failure
// has more than one cause.
package grouptest

import (
	"context"
	"fmt"
)

// SplitDepthFirst searches the index range [0, n) by adaptive binary
// splitting, depth-first. It tests the whole range first. A range that
// tests negative is discarded; a positive range of two or more indices is
// split into [lo, mid) and [mid, hi), mid = lo + (hi−lo)/2, and the first
// half is searched to completion before the second is tested. A positive
// single index is defective. It returns the defective indices in
// increasing order and the number of tests made, which is at most 2n − 1
// (every node of a binary tree over n leaves) and O(d log n) for d
// defectives.
//
// Tests run one at a time in that order, so a test may depend on the
// verdicts before it: Shortcut keeps the substitution of every negative
// group before it tests the next one.
//
// Cancellation of ctx stops the search before the next test; an error
// from test stops it at once. Either way the search returns the
// defectives found so far, the tests made (the failed one included) and
// the error.
func SplitDepthFirst(ctx context.Context, n int, test func(lo, hi int) (positive bool, err error)) (defective []int, tests int, err error) {
	if n < 0 {
		return nil, 0, fmt.Errorf("grouptest: negative element count %d", n)
	}
	type span struct{ lo, hi int }
	// Each split pushes two ranges and pops one, so the stack holds at most
	// one range per level of the tree (plus one): 64 entries cover any n.
	var buf [64]span
	stack := buf[:0]
	if n > 0 {
		stack = append(stack, span{0, n})
	}
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := ctx.Err(); err != nil {
			return defective, tests, err
		}
		tests++
		positive, err := test(sp.lo, sp.hi)
		if err != nil {
			return defective, tests, err
		}
		switch {
		case !positive:
		case sp.hi-sp.lo == 1:
			defective = append(defective, sp.lo)
		default:
			mid := sp.lo + (sp.hi-sp.lo)/2
			stack = append(stack, span{mid, sp.hi}, span{sp.lo, mid})
		}
	}
	return defective, tests, nil
}
