// Package grouptest implements adaptive group testing: it finds the
// defective elements among n by testing groups of them, splitting only the
// groups that test positive.
//
// It serves two searches. The first is the extension sketched in the
// paper's conclusion: "we would like to explore group testing to identify
// problematic data elements when a dataset has been identified as a root
// cause". When BugDoc asserts that an input dataset causes the failure, the
// next question is *which rows* of that dataset are to blame; re-running the
// pipeline once per row is prohibitive, so FindDefectives runs it on row
// subsets instead. The second is the Shortcut algorithm (internal/core),
// which substitutes a succeeding instance's values onto a failing one a
// group of parameters at a time through SplitDepthFirst: a parameter is
// defective when its substitution ends the failure.
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
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Tester evaluates the pipeline on a subset of data elements (identified by
// index) and reports whether the run fails. It must be deterministic: a
// subset fails iff it contains a defective element.
type Tester interface {
	Test(ctx context.Context, elements []int) (fails bool, err error)
}

// TesterFunc adapts a function to Tester.
type TesterFunc func(ctx context.Context, elements []int) (bool, error)

// Test implements Tester.
func (f TesterFunc) Test(ctx context.Context, elements []int) (bool, error) {
	return f(ctx, elements)
}

// BatchTester is an optional Tester extension: a round of independent
// subsets is submitted as one call, so implementations backed by a
// pipeline executor can dispatch the hypotheses in parallel and commit
// their provenance in one batch. TestBatch returns one verdict per subset,
// in order; an error discards the whole round.
type BatchTester interface {
	Tester
	TestBatch(ctx context.Context, subsets [][]int) ([]bool, error)
}

// Parallel wraps a Tester into a BatchTester that dispatches each round's
// subsets across up to workers goroutines — the group-testing analogue of
// the executor's worker pool (Section 4.3: independent pipeline runs
// parallelize). The underlying Tester must be safe for concurrent use. Of
// the errors a round produces, the one from the lowest-indexed subset is
// reported.
func Parallel(t Tester, workers int) BatchTester {
	if workers < 1 {
		workers = 1
	}
	return &parallelTester{t: t, workers: workers}
}

type parallelTester struct {
	t       Tester
	workers int
}

// Test implements Tester.
func (p *parallelTester) Test(ctx context.Context, elements []int) (bool, error) {
	return p.t.Test(ctx, elements)
}

// TestBatch implements BatchTester. One failed subset discards the whole
// round, so once any test errors the remaining subsets are skipped — each
// test can be an expensive pipeline run.
func (p *parallelTester) TestBatch(ctx context.Context, subsets [][]int) ([]bool, error) {
	fails := make([]bool, len(subsets))
	errs := make([]error, len(subsets))
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := p.workers
	if workers > len(subsets) {
		workers = len(subsets)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue
				}
				fails[i], errs[i] = p.t.Test(ctx, subsets[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range subsets {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fails, nil
}

// ErrBudgetExhausted is returned when the test budget runs out before every
// defective element is isolated.
var ErrBudgetExhausted = errors.New("grouptest: test budget exhausted")

// Options bounds a search.
type Options struct {
	// MaxTests caps the number of Tester invocations (<= 0: unlimited).
	MaxTests int
}

// Result reports the search outcome.
type Result struct {
	// Defective lists the isolated defective element indices, sorted.
	Defective []int
	// Tests is the number of Tester invocations charged. A batched round
	// that errors is not charged — its verdicts are discarded and a batch
	// tester may have skipped members after the failure — so after an
	// error Tests can undercount the invocations actually attempted.
	Tests int
}

// FindDefectives isolates every defective element among n elements by
// adaptive binary splitting: test the whole range; if it fails, split it and
// recurse into each failing half, skipping halves that test clean. Each
// defective costs O(log n) tests; clean regions are discarded wholesale.
//
// The splitting proceeds in level-order rounds: the ranges of one depth
// are independent hypotheses, so each round is submitted as a set — one
// TestBatch call when the tester supports it (letting an executor-backed
// tester parallelize the runs and commit their provenance in one batch),
// sequential Test calls otherwise. Under the premise, an unbudgeted run
// visits exactly the ranges SplitDepthFirst visits, in breadth-first
// order; under MaxTests the budget is spent breadth-first, so a truncated
// search may have isolated different (typically fewer) defectives than a
// depth-first spend of the same budget would.
func FindDefectives(ctx context.Context, t Tester, n int, opts Options) (*Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("grouptest: negative element count %d", n)
	}
	res := &Result{}
	if n == 0 {
		return res, nil
	}
	bt, batched := t.(BatchTester)
	type span struct{ lo, hi int }
	level := []span{{0, n}}
	for len(level) > 0 {
		if err := ctx.Err(); err != nil {
			sort.Ints(res.Defective)
			return res, err
		}
		// Claim budget for the round in range order; a truncated round
		// still tests (and reports) its funded prefix before failing.
		round := level
		exhausted := false
		if opts.MaxTests > 0 && res.Tests+len(round) > opts.MaxTests {
			round = round[:opts.MaxTests-res.Tests]
			exhausted = true
		}
		subsets := make([][]int, len(round))
		for i, sp := range round {
			elems := make([]int, 0, sp.hi-sp.lo)
			for e := sp.lo; e < sp.hi; e++ {
				elems = append(elems, e)
			}
			subsets[i] = elems
		}
		var fails []bool
		var err error
		if batched && len(subsets) > 1 {
			fails, err = bt.TestBatch(ctx, subsets)
			if err == nil && len(fails) != len(subsets) {
				err = fmt.Errorf("grouptest: TestBatch returned %d verdicts for %d subsets", len(fails), len(subsets))
			}
			if err == nil {
				// A failed round yields no usable verdicts (and batch
				// testers may skip subsets after an error), so only
				// successful rounds charge the test count.
				res.Tests += len(subsets)
			}
		} else {
			fails = make([]bool, len(subsets))
			for i, elems := range subsets {
				if err = ctx.Err(); err != nil {
					break // don't start further tests after cancellation
				}
				res.Tests++
				if fails[i], err = t.Test(ctx, elems); err != nil {
					break
				}
			}
		}
		if err != nil {
			sort.Ints(res.Defective)
			return res, err
		}
		var next []span
		for i, sp := range round {
			if !fails[i] {
				continue
			}
			if sp.hi-sp.lo == 1 {
				res.Defective = append(res.Defective, sp.lo)
				continue
			}
			mid := sp.lo + (sp.hi-sp.lo)/2
			next = append(next, span{sp.lo, mid}, span{mid, sp.hi})
		}
		if exhausted {
			sort.Ints(res.Defective)
			return res, ErrBudgetExhausted
		}
		level = next
	}
	sort.Ints(res.Defective)
	return res, nil
}

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
// group before it tests the next one. FindDefectives visits the same
// ranges breadth-first, which lets a BatchTester run each level's ranges
// together; under a cap on tests the two orders spend it differently.
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

// FindFirstDefective isolates one defective element (the lowest-indexed one
// reachable by bisection) in O(log n) tests — the FindOne analogue for data
// elements. ok is false when the full set tests clean.
func FindFirstDefective(ctx context.Context, t Tester, n int, opts Options) (idx int, ok bool, tests int, err error) {
	if n <= 0 {
		return 0, false, 0, nil
	}
	run := func(lo, hi int) (bool, error) {
		if opts.MaxTests > 0 && tests >= opts.MaxTests {
			return false, ErrBudgetExhausted
		}
		if e := ctx.Err(); e != nil {
			return false, e
		}
		tests++
		elems := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			elems = append(elems, i)
		}
		return t.Test(ctx, elems)
	}
	fails, err := run(0, n)
	if err != nil || !fails {
		return 0, false, tests, err
	}
	lo, hi := 0, n
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		leftFails, err := run(lo, mid)
		if err != nil {
			return 0, false, tests, err
		}
		if leftFails {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, true, tests, nil
}
