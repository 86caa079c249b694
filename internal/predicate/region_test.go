package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pipeline"
)

func mustRegion(t *testing.T, s *pipeline.Space, c Conjunction) Region {
	t.Helper()
	r, err := RegionOf(s, c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFullRegion(t *testing.T) {
	s := testSpace(t)
	r := FullRegion(s)
	n, exact := r.Count()
	if !exact || n != 24 {
		t.Fatalf("full region count = %d", n)
	}
	if r.Empty() {
		t.Fatal("full region must not be empty")
	}
	// The rows share one backing array: a region costs two allocations,
	// the row headers and the cells, whatever its parameter count.
	if n := testing.AllocsPerRun(100, func() { regionSink = FullRegion(s) }); n != 2 {
		t.Fatalf("FullRegion allocated %v times, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { regionSink = r.Intersect(r) }); n != 2 {
		t.Fatalf("Intersect allocated %v times, want 2", n)
	}
}

var regionSink Region

func TestRegionOfConjunction(t *testing.T) {
	s := testSpace(t)
	c := And(T("p1", Le, pipeline.Ord(2)), T("p2", Neq, pipeline.Cat("c")))
	r := mustRegion(t, s, c)
	n, _ := r.Count()
	// p1 in {1,2}, p2 in {a,b}, p3 free -> 2*2*2 = 8.
	if n != 8 {
		t.Fatalf("count = %d, want 8", n)
	}
	vals := r.AllowedValues("p1")
	if len(vals) != 2 || vals[0] != pipeline.Ord(1) || vals[1] != pipeline.Ord(2) {
		t.Fatalf("allowed p1 = %v", vals)
	}
}

func TestRegionEmptyAndContradiction(t *testing.T) {
	s := testSpace(t)
	c := And(T("p1", Eq, pipeline.Ord(1)), T("p1", Eq, pipeline.Ord(2)))
	r := mustRegion(t, s, c)
	if !r.Empty() {
		t.Fatal("contradictory conjunction must denote empty region")
	}
	if _, ok := r.AnyInstance(); ok {
		t.Fatal("AnyInstance on empty region must fail")
	}
	// Equality with an out-of-domain value is empty too.
	r2 := mustRegion(t, s, And(T("p1", Eq, pipeline.Ord(99))))
	if !r2.Empty() {
		t.Fatal("out-of-domain equality must be empty")
	}
}

func TestRegionOfInvalidTriple(t *testing.T) {
	s := testSpace(t)
	if _, err := RegionOf(s, And(T("zz", Eq, pipeline.Ord(1)))); err == nil {
		t.Fatal("unknown parameter must error")
	}
	if _, err := RegionOf(s, And(T("p2", Gt, pipeline.Cat("a")))); err == nil {
		t.Fatal("ordering on categorical must error")
	}
}

func TestRegionSubsetEqualIntersect(t *testing.T) {
	s := testSpace(t)
	small := mustRegion(t, s, And(T("p1", Eq, pipeline.Ord(2))))
	big := mustRegion(t, s, And(T("p1", Le, pipeline.Ord(3))))
	if !small.SubsetOf(big) {
		t.Fatal("p1=2 must be subset of p1<=3")
	}
	if big.SubsetOf(small) {
		t.Fatal("p1<=3 must not be subset of p1=2")
	}
	inter := small.Intersect(big)
	if !inter.Equal(small) {
		t.Fatal("intersection of nested regions must equal the smaller")
	}
	empty := mustRegion(t, s, And(T("p1", Gt, pipeline.Ord(4))))
	if !empty.SubsetOf(small) {
		t.Fatal("empty region is subset of everything")
	}
}

func TestRegionContainsMatchesSatisfied(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(3))
	triplePool := []Triple{
		T("p1", Eq, pipeline.Ord(2)),
		T("p1", Neq, pipeline.Ord(3)),
		T("p1", Le, pipeline.Ord(2)),
		T("p1", Gt, pipeline.Ord(1)),
		T("p2", Eq, pipeline.Cat("b")),
		T("p2", Neq, pipeline.Cat("a")),
		T("p3", Le, pipeline.Ord(10)),
	}
	f := func() bool {
		var c Conjunction
		for _, tr := range triplePool {
			if r.Intn(3) == 0 {
				c = append(c, tr)
			}
		}
		reg, err := RegionOf(s, c)
		if err != nil {
			return false
		}
		// Region membership must agree with direct satisfaction on every
		// instance of the space.
		agree := true
		s.Enumerate(func(in pipeline.Instance) bool {
			if reg.Contains(in) != c.Satisfied(in) {
				agree = false
				return false
			}
			return true
		})
		return agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRegionContainsForeignSpace pins Contains' space guard: a region never
// contains an instance of another space, neither a twin space's whose
// values lie in the region nor a smaller space's, whose missing
// parameters would be read out of range.
func TestRegionContainsForeignSpace(t *testing.T) {
	s := testSpace(t)
	r := FullRegion(s)
	vals := []pipeline.Value{pipeline.Ord(1), pipeline.Cat("a"), pipeline.Ord(10)}
	if !r.Contains(pipeline.MustInstance(s, vals...)) {
		t.Fatal("the full region must contain every instance of its space")
	}
	if r.Contains(pipeline.MustInstance(testSpace(t), vals...)) {
		t.Fatal("a region contains a twin-space instance")
	}
	small := pipeline.MustSpace(pipeline.Parameter{Name: "p1", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2)})
	if r.Contains(pipeline.MustInstance(small, pipeline.Ord(1))) {
		t.Fatal("a region contains a smaller-space instance")
	}
}

func TestRegionCountMatchesEnumeration(t *testing.T) {
	s := testSpace(t)
	c := And(T("p1", Gt, pipeline.Ord(1)), T("p3", Eq, pipeline.Ord(20)))
	reg := mustRegion(t, s, c)
	n, _ := reg.Count()
	count := uint64(0)
	s.Enumerate(func(in pipeline.Instance) bool {
		if c.Satisfied(in) {
			count++
		}
		return true
	})
	if n != count {
		t.Fatalf("Count = %d, enumeration = %d", n, count)
	}
}

func TestAnyInstanceSatisfies(t *testing.T) {
	s := testSpace(t)
	c := And(T("p1", Gt, pipeline.Ord(2)), T("p2", Neq, pipeline.Cat("a")))
	reg := mustRegion(t, s, c)
	in, ok := reg.AnyInstance()
	if !ok {
		t.Fatal("region is non-empty")
	}
	if !c.Satisfied(in) {
		t.Fatalf("AnyInstance %v does not satisfy %v", in, c)
	}
}

func TestIntersectAcrossSpacesPanics(t *testing.T) {
	s1, s2 := testSpace(t), testSpace(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Intersect across spaces must panic")
		}
	}()
	FullRegion(s1).Intersect(FullRegion(s2))
}
