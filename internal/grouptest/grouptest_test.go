package grouptest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// defectiveTester fails iff the tested subset intersects the defective set.
func defectiveTester(defective map[int]bool, counter *int) Tester {
	return TesterFunc(func(_ context.Context, elements []int) (bool, error) {
		if counter != nil {
			*counter++
		}
		for _, e := range elements {
			if defective[e] {
				return true, nil
			}
		}
		return false, nil
	})
}

func TestFindDefectivesBasic(t *testing.T) {
	def := map[int]bool{3: true, 17: true, 18: true}
	res, err := FindDefectives(context.Background(), defectiveTester(def, nil), 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Defective) != 3 || res.Defective[0] != 3 || res.Defective[1] != 17 || res.Defective[2] != 18 {
		t.Fatalf("Defective = %v", res.Defective)
	}
}

func TestFindDefectivesCleanSet(t *testing.T) {
	res, err := FindDefectives(context.Background(), defectiveTester(nil, nil), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Defective) != 0 || res.Tests != 1 {
		t.Fatalf("clean set: %+v", res)
	}
}

func TestFindDefectivesEmptyAndInvalid(t *testing.T) {
	res, err := FindDefectives(context.Background(), defectiveTester(nil, nil), 0, Options{})
	if err != nil || res.Tests != 0 {
		t.Fatalf("empty set: %+v, %v", res, err)
	}
	if _, err := FindDefectives(context.Background(), defectiveTester(nil, nil), -1, Options{}); err == nil {
		t.Fatal("negative n must fail")
	}
}

func TestFindDefectivesBudget(t *testing.T) {
	def := map[int]bool{0: true, 999: true}
	res, err := FindDefectives(context.Background(), defectiveTester(def, nil), 1000, Options{MaxTests: 5})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if res.Tests > 5 {
		t.Fatalf("Tests = %d exceeds budget", res.Tests)
	}
}

func TestFindDefectivesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FindDefectives(ctx, defectiveTester(map[int]bool{1: true}, nil), 8, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// Property: every defective set is recovered exactly, within the
// O(d log n) test bound.
func TestFindDefectivesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + r.Intn(200)
		d := r.Intn(6)
		def := map[int]bool{}
		for len(def) < d && len(def) < n {
			def[r.Intn(n)] = true
		}
		count := 0
		res, err := FindDefectives(context.Background(), defectiveTester(def, &count), n, Options{})
		if err != nil {
			return false
		}
		if len(res.Defective) != len(def) {
			return false
		}
		for _, e := range res.Defective {
			if !def[e] {
				return false
			}
		}
		// Adaptive splitting bound: ~ 2d(log2(n)+1) + 1 tests.
		bound := 1 + 2*float64(len(def))*(math.Log2(float64(n))+2)
		return float64(res.Tests) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFindDefectivesParallelBatches runs the search through the Parallel
// BatchTester and asserts it finds the same defectives in the same number
// of tests as the sequential path.
func TestFindDefectivesParallelBatches(t *testing.T) {
	def := map[int]bool{3: true, 17: true, 18: true, 200: true}
	seq, err := FindDefectives(context.Background(), defectiveTester(def, nil), 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	base := TesterFunc(func(_ context.Context, elements []int) (bool, error) {
		calls.Add(1)
		for _, e := range elements {
			if def[e] {
				return true, nil
			}
		}
		return false, nil
	})
	par, err := FindDefectives(context.Background(), Parallel(base, 4), 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Defective) != len(def) {
		t.Fatalf("Defective = %v", par.Defective)
	}
	for _, e := range par.Defective {
		if !def[e] {
			t.Fatalf("false positive %d", e)
		}
	}
	if n := calls.Load(); par.Tests != seq.Tests || int64(par.Tests) != n {
		t.Fatalf("parallel used %d tests (%d calls), sequential %d", par.Tests, n, seq.Tests)
	}
}

func TestFindFirstDefective(t *testing.T) {
	def := map[int]bool{42: true, 77: true}
	idx, ok, tests, err := FindFirstDefective(context.Background(), defectiveTester(def, nil), 128, Options{})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if idx != 42 {
		t.Fatalf("idx = %d, want 42 (bisection finds the left-most)", idx)
	}
	// O(log n): full-set test + 7 bisection steps for n=128.
	if tests > 9 {
		t.Fatalf("tests = %d, want <= 9", tests)
	}
}

func TestFindFirstDefectiveClean(t *testing.T) {
	_, ok, tests, err := FindFirstDefective(context.Background(), defectiveTester(nil, nil), 64, Options{})
	if err != nil || ok || tests != 1 {
		t.Fatalf("clean: ok=%v tests=%d err=%v", ok, tests, err)
	}
	if _, ok, _, _ := FindFirstDefective(context.Background(), defectiveTester(nil, nil), 0, Options{}); ok {
		t.Fatal("empty set has no defectives")
	}
}

func TestFindFirstDefectiveBudget(t *testing.T) {
	def := map[int]bool{1000: true}
	_, _, _, err := FindFirstDefective(context.Background(), defectiveTester(def, nil), 2048, Options{MaxTests: 3})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
}

// span is one range a search tested.
type span struct{ lo, hi int }

// defectiveRanges is SplitDepthFirst's test under the package's premise: a
// range is positive iff it holds a defective. It records every range it
// is asked about, in order.
func defectiveRanges(defective map[int]bool, tested *[]span) func(lo, hi int) (bool, error) {
	return func(lo, hi int) (bool, error) {
		*tested = append(*tested, span{lo, hi})
		for e := lo; e < hi; e++ {
			if defective[e] {
				return true, nil
			}
		}
		return false, nil
	}
}

func TestSplitDepthFirstBasic(t *testing.T) {
	var tested []span
	def, tests, err := SplitDepthFirst(context.Background(), 8, defectiveRanges(map[int]bool{2: true, 3: true}, &tested))
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 2 || def[0] != 2 || def[1] != 3 {
		t.Fatalf("defective = %v", def)
	}
	// The first half is searched to completion before the second is tested.
	want := []span{{0, 8}, {0, 4}, {0, 2}, {2, 4}, {2, 3}, {3, 4}, {4, 8}}
	if tests != len(want) || len(tested) != len(want) {
		t.Fatalf("tests = %d, tested %v; want %v", tests, tested, want)
	}
	for i := range want {
		if tested[i] != want[i] {
			t.Fatalf("tested %v, want %v", tested, want)
		}
	}
}

// Property: every defective set is recovered exactly, in increasing order,
// within FindDefectives' O(d log n) bound and 2n − 1 tests, exactly 2n − 1
// when every element is defective. The ranges come in depth-first order,
// first halves first: each range starts at or after the one tested before
// it, and one that starts at the same index lies inside it.
func TestSplitDepthFirstProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + r.Intn(200)
		d := r.Intn(6)
		if r.Intn(8) == 0 {
			d = n
		}
		def := map[int]bool{}
		for len(def) < d && len(def) < n {
			def[r.Intn(n)] = true
		}
		var tested []span
		got, tests, err := SplitDepthFirst(context.Background(), n, defectiveRanges(def, &tested))
		if err != nil || tests != len(tested) || len(got) != len(def) {
			return false
		}
		for i, e := range got {
			if !def[e] || (i > 0 && got[i-1] >= e) {
				return false
			}
		}
		for i := 1; i < len(tested); i++ {
			prev, cur := tested[i-1], tested[i]
			if cur.lo < prev.lo || (cur.lo == prev.lo && cur.hi >= prev.hi) {
				return false
			}
		}
		if len(def) == n && tests != 2*n-1 {
			return false
		}
		bound := 1 + 2*float64(len(def))*(math.Log2(float64(n))+2)
		return float64(tests) <= bound && tests <= 2*n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDepthFirstEmptyAndErrors(t *testing.T) {
	ctx := context.Background()
	var tested []span
	if def, tests, err := SplitDepthFirst(ctx, 0, defectiveRanges(nil, &tested)); err != nil || tests != 0 || def != nil {
		t.Fatalf("empty range: %v, %d, %v", def, tests, err)
	}
	if _, _, err := SplitDepthFirst(ctx, -1, defectiveRanges(nil, &tested)); err == nil {
		t.Fatal("negative n must fail")
	}
	// An error stops the search at once, keeping what was found: [0,8),
	// [0,4), [0,2), [0,1), [1,2) (defective), [2,4), then [4,8) fails.
	boom := errors.New("boom")
	def, tests, err := SplitDepthFirst(ctx, 8, func(lo, hi int) (bool, error) {
		if lo == 4 {
			return false, boom
		}
		return lo <= 1 && 1 < hi, nil
	})
	if !errors.Is(err, boom) || len(def) != 1 || def[0] != 1 || tests != 7 {
		t.Fatalf("erroring test: %v, %d, %v", def, tests, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, tests, err := SplitDepthFirst(cancelled, 8, defectiveRanges(nil, &tested)); !errors.Is(err, context.Canceled) || tests != 0 {
		t.Fatalf("cancelled: %d tests, %v", tests, err)
	}
}
