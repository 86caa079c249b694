package predicate

import (
	"math"
	"math/rand"
	"sort"
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
		pipeline.Parameter{Name: "p1", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4)},
		pipeline.Parameter{Name: "p2", Kind: pipeline.Categorical, Domain: catDomain("a", "b", "c")},
		pipeline.Parameter{Name: "p3", Kind: pipeline.Ordinal, Domain: ordDomain(10, 20)},
	)
}

func TestComparatorStringParse(t *testing.T) {
	for _, c := range []Comparator{Eq, Neq, Le, Gt} {
		got, err := ParseComparator(c.String())
		if err != nil || got != c {
			t.Fatalf("round trip of %v: got %v, err %v", c, got, err)
		}
	}
	if _, err := ParseComparator("=="); err == nil {
		t.Fatal("unknown comparator must fail")
	}
}

func TestComparatorNegateInvolution(t *testing.T) {
	for _, c := range []Comparator{Eq, Neq, Le, Gt} {
		if c.Negate().Negate() != c {
			t.Fatalf("Negate not involutive for %v", c)
		}
	}
}

func TestTripleHolds(t *testing.T) {
	cases := []struct {
		tr   Triple
		v    pipeline.Value
		want bool
	}{
		{T("p1", Eq, pipeline.Ord(3)), pipeline.Ord(3), true},
		{T("p1", Eq, pipeline.Ord(3)), pipeline.Ord(2), false},
		{T("p1", Neq, pipeline.Ord(3)), pipeline.Ord(2), true},
		{T("p1", Le, pipeline.Ord(3)), pipeline.Ord(3), true},
		{T("p1", Le, pipeline.Ord(3)), pipeline.Ord(4), false},
		{T("p1", Gt, pipeline.Ord(3)), pipeline.Ord(4), true},
		{T("p1", Gt, pipeline.Ord(3)), pipeline.Ord(3), false},
		{T("p2", Eq, pipeline.Cat("a")), pipeline.Cat("a"), true},
		{T("p2", Neq, pipeline.Cat("a")), pipeline.Cat("b"), true},
	}
	for _, c := range cases {
		if got := c.tr.Holds(c.v); got != c.want {
			t.Errorf("%v.Holds(%v) = %v, want %v", c.tr, c.v, got, c.want)
		}
	}
}

func TestTripleNegatedComplement(t *testing.T) {
	s := testSpace(t)
	triples := []Triple{
		T("p1", Eq, pipeline.Ord(2)),
		T("p1", Neq, pipeline.Ord(2)),
		T("p1", Le, pipeline.Ord(2)),
		T("p1", Gt, pipeline.Ord(2)),
		T("p2", Eq, pipeline.Cat("b")),
	}
	for _, tr := range triples {
		neg := tr.Negated()
		for _, v := range s.Domain(tr.Param) {
			if tr.Holds(v) == neg.Holds(v) {
				t.Errorf("%v and %v agree on %v", tr, neg, v)
			}
		}
	}
}

func TestTripleValidate(t *testing.T) {
	s := testSpace(t)
	good := []Triple{
		T("p1", Le, pipeline.Ord(2)),
		T("p2", Neq, pipeline.Cat("a")),
	}
	for _, tr := range good {
		if err := tr.Validate(s); err != nil {
			t.Errorf("Validate(%v) = %v", tr, err)
		}
	}
	bad := []Triple{
		T("zz", Eq, pipeline.Ord(1)),          // unknown parameter
		T("p1", Eq, pipeline.Cat("x")),        // kind mismatch
		T("p2", Le, pipeline.Cat("a")),        // ordering on categorical
		{Param: "p1", Value: pipeline.Ord(1)}, // invalid comparator
	}
	for _, tr := range bad {
		if err := tr.Validate(s); err == nil {
			t.Errorf("Validate(%v) succeeded, want error", tr)
		}
	}
}

func TestTripleSatisfied(t *testing.T) {
	s := testSpace(t)
	in := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("b"), pipeline.Ord(10))
	if !T("p1", Le, pipeline.Ord(2)).Satisfied(in) {
		t.Fatal("p1 <= 2 should hold")
	}
	if T("p1", Gt, pipeline.Ord(2)).Satisfied(in) {
		t.Fatal("p1 > 2 should not hold")
	}
	if T("zz", Eq, pipeline.Ord(1)).Satisfied(in) {
		t.Fatal("unknown parameter never satisfied")
	}
}

func TestTripleString(t *testing.T) {
	if got := T("p1", Le, pipeline.Ord(3)).String(); got != "p1 <= 3" {
		t.Fatalf("String = %q", got)
	}
	if got := T("p2", Neq, pipeline.Cat("a")).String(); got != `p2 != "a"` {
		t.Fatalf("String = %q", got)
	}
}

// canonicalByLess is Canonical as a sort.Slice over the canonical triple
// order, spelled out, the reference the three-way sort must reproduce
// element for element.
func canonicalByLess(c Conjunction) Conjunction {
	less := func(a, b Triple) bool {
		if a.Param != b.Param {
			return a.Param < b.Param
		}
		if a.Cmp != b.Cmp {
			return a.Cmp < b.Cmp
		}
		return a.Value.Less(b.Value)
	}
	out := append(Conjunction(nil), c...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	dedup := out[:0]
	for i, t := range out {
		if i == 0 || t != out[i-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}

// TestCanonicalMatchesLessSort checks Canonical against canonicalByLess on
// random conjunctions with repeated triples, signed zeros and NaNs, which
// Less does not order, comparing values bit for bit.
func TestCanonicalMatchesLessSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vals := []pipeline.Value{
		pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(0), pipeline.Ord(math.Copysign(0, -1)),
		pipeline.Ord(math.NaN()), pipeline.Ord(math.Float64frombits(0x7ff8000000000002)),
		pipeline.Cat("a"), pipeline.Cat("b"),
	}
	for trial := 0; trial < 2000; trial++ {
		c := make(Conjunction, r.Intn(40))
		for k := range c {
			c[k] = T([]string{"p", "q", "r"}[r.Intn(3)], Comparator(1+r.Intn(4)), vals[r.Intn(len(vals))])
		}
		got, want := c.Canonical(), canonicalByLess(c)
		if len(got) != len(want) {
			t.Fatalf("Canonical(%v) = %v, want %v", c, got, want)
		}
		for k := range got {
			g, w := got[k], want[k]
			if g.Param != w.Param || g.Cmp != w.Cmp || g.Value.Kind() != w.Value.Kind() ||
				g.Value.Kind() == pipeline.Ordinal && math.Float64bits(g.Value.Num()) != math.Float64bits(w.Value.Num()) ||
				g.Value.Kind() == pipeline.Categorical && g.Value.Str() != w.Value.Str() {
				t.Fatalf("Canonical(%v)[%d] = %v, want %v", c, k, g, w)
			}
		}
	}
}
