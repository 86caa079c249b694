package grouptest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
// within adaptive splitting's O(d log n) bound, about 2d(log2(n)+2) + 1
// tests, and within 2n − 1 tests, exactly 2n − 1 when every element is
// defective. The ranges come in depth-first order,
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
