package forest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
)

func ordDomain(vals ...float64) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Ord(v)
	}
	return out
}

func catDomain(vals ...string) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Cat(v)
	}
	return out
}

func testSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4, 5, 6)},
		pipeline.Parameter{Name: "c", Kind: pipeline.Categorical, Domain: catDomain("a", "b", "c")},
	)
}

func dataset(s *pipeline.Space, f func(pipeline.Instance) float64) (xs []pipeline.Instance, ys []float64) {
	s.Enumerate(func(in pipeline.Instance) bool {
		xs = append(xs, in)
		ys = append(ys, f(in))
		return true
	})
	return
}

func TestTrainEmpty(t *testing.T) {
	s := testSpace(t)
	f := Train(s, nil, nil, Config{})
	if f.Len() != 0 {
		t.Fatalf("empty forest has %d trees", f.Len())
	}
	mu, v := f.Predict(pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("a")))
	if mu != 0 || v != 0 {
		t.Fatalf("empty forest Predict = %v, %v", mu, v)
	}
}

func TestForestLearnsThreshold(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		if v, _ := in.ByName("x"); v.Num() <= 3 {
			return 1
		}
		return 0
	})
	f := Train(s, xs, ys, Config{Trees: 24, Rand: rand.New(rand.NewSource(1))})
	if f.Len() != 24 {
		t.Fatalf("Len = %d", f.Len())
	}
	low, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("b")))
	high, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(5), pipeline.Cat("b")))
	if low < 0.7 || high > 0.3 {
		t.Fatalf("Predict(x=2) = %v, Predict(x=5) = %v; want near 1 and 0", low, high)
	}
}

func TestForestLearnsCategorical(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		if v, _ := in.ByName("c"); v.Str() == "b" {
			return 1
		}
		return 0
	})
	f := Train(s, xs, ys, Config{Trees: 24, Rand: rand.New(rand.NewSource(2))})
	hit, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("b")))
	miss, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("a")))
	if hit < 0.7 || miss > 0.3 {
		t.Fatalf("Predict(c=b) = %v, Predict(c=a) = %v", hit, miss)
	}
}

func TestForestVarianceSmallOnConstantTarget(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(pipeline.Instance) float64 { return 0.5 })
	f := Train(s, xs, ys, Config{Trees: 8, Rand: rand.New(rand.NewSource(3))})
	mu, v := f.Predict(pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("a")))
	if mu != 0.5 || v != 0 {
		t.Fatalf("constant target: Predict = %v, %v", mu, v)
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		v, _ := in.ByName("x")
		return v.Num() / 6
	})
	in := pipeline.MustInstance(s, pipeline.Ord(4), pipeline.Cat("c"))
	f1 := Train(s, xs, ys, Config{Trees: 8, Rand: rand.New(rand.NewSource(7))})
	f2 := Train(s, xs, ys, Config{Trees: 8, Rand: rand.New(rand.NewSource(7))})
	m1, v1 := f1.Predict(in)
	m2, v2 := f2.Predict(in)
	if m1 != m2 || v1 != v2 {
		t.Fatalf("forest not deterministic: (%v,%v) vs (%v,%v)", m1, v1, m2, v2)
	}
}

// TestGrowScoresTheAppliedPartition pins the split search to the partition
// the tree applies when NaN is among the observed values. The NaN value is
// interned after the domain and first seen between 3 and 1, where a
// comparator sort cannot order it; ordering codes by value rank, NaN last,
// scores each "<=" threshold on exactly the examples its test sends to the
// yes side. Variances with MinLeaf 2: x <= 1 scores 133.3, x <= 2 scores
// 100 (yes {1,1,2,2}, no {3,3,NaN,NaN}), x <= 3 scores 133.3 (no side
// {NaN,NaN}), so the root must split at 2.
func TestGrowScoresTheAppliedPartition(t *testing.T) {
	s := pipeline.MustSpace(pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3)})
	var xs []pipeline.Instance
	var ys []float64
	for _, x := range []float64{3, 3, math.NaN(), math.NaN(), 1, 1, 2, 2} {
		xs = append(xs, pipeline.MustInstance(s, pipeline.Ord(x)))
		y := 0.0
		if x == 3 {
			y = 10
		}
		ys = append(ys, y)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	root := grow(s, xs, ys, idx, Config{MinLeaf: 2}.withDefaults(), 1, 0, &scratch{})
	if root.yes == nil || !root.ordinal || root.param != 0 || root.threshold != 2 {
		t.Fatalf("root split: leaf=%v ordinal=%v param=%d threshold=%v, want x <= 2",
			root.yes == nil, root.ordinal, root.param, root.threshold)
	}
}
