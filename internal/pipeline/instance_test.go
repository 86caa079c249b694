package pipeline

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewInstanceValidation(t *testing.T) {
	s := testSpace(t)
	if _, err := NewInstance(nil, nil); err == nil {
		t.Fatal("nil space must fail")
	}
	if _, err := NewInstance(s, []Value{Ord(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := NewInstance(s, []Value{Ord(1), Ord(2), Ord(10)}); err == nil {
		t.Fatal("kind mismatch must fail")
	}
	in, err := NewInstance(s, []Value{Ord(1), Cat("a"), Ord(10)})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsValid() || in.Len() != 3 {
		t.Fatalf("instance invalid: %v", in)
	}
	var zero Instance
	if zero.IsValid() {
		t.Fatal("zero instance must be invalid")
	}
}

func TestInstanceIsolatedFromInput(t *testing.T) {
	s := testSpace(t)
	vals := []Value{Ord(1), Cat("a"), Ord(10)}
	in := MustInstance(s, vals...)
	vals[0] = Ord(4)
	if in.Value(0) != Ord(1) {
		t.Fatal("instance must copy its input values")
	}
}

func TestFromAssignments(t *testing.T) {
	s := testSpace(t)
	in, err := FromAssignments(s, []Assignment{
		{Param: "p3", Value: Ord(20)},
		{Param: "p1", Value: Ord(2)},
		{Param: "p2", Value: Cat("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Value(0) != Ord(2) || in.Value(1) != Cat("b") || in.Value(2) != Ord(20) {
		t.Fatalf("FromAssignments = %v", in)
	}
	if _, err := FromAssignments(s, []Assignment{{Param: "p1", Value: Ord(1)}}); err == nil {
		t.Fatal("missing parameters must fail")
	}
	if _, err := FromAssignments(s, []Assignment{
		{Param: "p1", Value: Ord(1)}, {Param: "p1", Value: Ord(2)},
		{Param: "p2", Value: Cat("a")}, {Param: "p3", Value: Ord(10)},
	}); err == nil {
		t.Fatal("duplicate assignment must fail")
	}
	if _, err := FromAssignments(s, []Assignment{{Param: "zz", Value: Ord(1)}}); err == nil {
		t.Fatal("unknown parameter must fail")
	}
}

func TestInstanceWith(t *testing.T) {
	s := testSpace(t)
	a := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	b := a.With(0, Ord(3))
	if a.Value(0) != Ord(1) {
		t.Fatal("With must not mutate the receiver")
	}
	if b.Value(0) != Ord(3) || b.Value(1) != Cat("a") {
		t.Fatalf("With result = %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("With kind mismatch must panic")
		}
	}()
	_ = a.With(0, Cat("boom"))
}

func TestInstanceEqualDisjointDiff(t *testing.T) {
	s := testSpace(t)
	a := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	b := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	c := MustInstance(s, Ord(2), Cat("b"), Ord(20))
	d := MustInstance(s, Ord(2), Cat("a"), Ord(20))
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal broken")
	}
	if !a.DisjointFrom(c) {
		t.Fatal("a and c differ everywhere; must be disjoint")
	}
	if a.DisjointFrom(d) {
		t.Fatal("a and d share p2; must not be disjoint")
	}
	if got := a.DiffCount(d); got != 2 {
		t.Fatalf("DiffCount = %d, want 2", got)
	}
	other := testSpace(t)
	x := MustInstance(other, Ord(2), Cat("b"), Ord(20))
	if a.Equal(x) || a.DisjointFrom(x) {
		t.Fatal("instances over different spaces are neither equal nor disjoint")
	}
	// Hashes cover codes only, so only the space comparison tells a apart
	// from a twin-space instance with the same codes. The store's Lookup
	// and every InstanceMap probe rely on it.
	twin := MustInstance(other, Ord(1), Cat("a"), Ord(10))
	if twin.Hash() != a.Hash() {
		t.Fatal("a twin-space instance with equal codes must hash equal")
	}
	if a.Equal(twin) || twin.Equal(a) {
		t.Fatal("a twin-space instance with equal codes must not be Equal")
	}
}

// TestInstanceProbesAllocFree pins the identity probes every memo lookup
// and disjointness query runs: DisjointFrom, and InstanceMap.Get on a hit
// and on a miss, allocate nothing.
func TestInstanceProbesAllocFree(t *testing.T) {
	s := testSpace(t)
	a := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	c := MustInstance(s, Ord(2), Cat("b"), Ord(20))
	miss := MustInstance(s, Ord(3), Cat("c"), Ord(20))
	m := NewInstanceMap[int](4)
	m.Put(a, 1)
	m.Put(c, 2)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"DisjointFrom", func() { boolSink = a.DisjointFrom(c) }},
		{"InstanceMap.Get hit", func() { _, boolSink = m.Get(c) }},
		{"InstanceMap.Get miss", func() { _, boolSink = m.Get(miss) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s allocated %v times per call, want 0", tc.name, n)
		}
	}
}

var boolSink bool

// TestDiffCountCrossSpaceLengths pins the cross-space fallback of
// DiffCount to the shared parameter prefix: a space with fewer parameters
// used to drive the value comparison past the shorter code vector and
// panic, in both argument orders.
func TestDiffCountCrossSpaceLengths(t *testing.T) {
	s := testSpace(t)
	a := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	small := MustSpace(
		Parameter{Name: "p1", Kind: Ordinal, Domain: []Value{Ord(1), Ord(2)}},
	)
	b := MustInstance(small, Ord(2))
	if got := a.DiffCount(b); got != 1 {
		t.Fatalf("DiffCount(long, short) = %d, want 1", got)
	}
	if got := b.DiffCount(a); got != 1 {
		t.Fatalf("DiffCount(short, long) = %d, want 1", got)
	}
	same := MustInstance(small, Ord(1))
	if got := a.DiffCount(same); got != 0 {
		t.Fatalf("DiffCount over equal shared prefix = %d, want 0", got)
	}
}

func TestInstanceKeyUnique(t *testing.T) {
	s := testSpace(t)
	seen := make(map[string]Instance)
	s.Enumerate(func(in Instance) bool {
		k := in.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %v and %v", prev, in)
		}
		seen[k] = in
		return true
	})
	if len(seen) != 24 {
		t.Fatalf("enumerated %d instances, want 24", len(seen))
	}
}

func TestInstanceStringAndAssignments(t *testing.T) {
	s := testSpace(t)
	in := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	if got := in.String(); got != `{p1=1, p2="a", p3=10}` {
		t.Fatalf("String = %q", got)
	}
	as := in.Assignments()
	if len(as) != 3 || as[1].Param != "p2" || as[1].Value != Cat("a") {
		t.Fatalf("Assignments = %v", as)
	}
}

func TestRandomInstanceInDomain(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		in := s.RandomInstance(r)
		for j := 0; j < in.Len(); j++ {
			if s.DomainIndex(j, in.Value(j)) < 0 {
				t.Fatalf("random instance %v has out-of-domain value at %d", in, j)
			}
		}
	}
}

func TestRandomDisjoint(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(7))
	ref := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	for i := 0; i < 100; i++ {
		in, ok := s.RandomDisjoint(r, ref)
		if !ok {
			t.Fatal("disjoint instance must exist")
		}
		if !in.DisjointFrom(ref) {
			t.Fatalf("RandomDisjoint produced non-disjoint %v vs %v", in, ref)
		}
	}
	// Single-value domain: no disjoint instance exists.
	tight, err := NewSpace(
		Parameter{Name: "x", Kind: Ordinal, Domain: ordDomain(1)},
		Parameter{Name: "y", Kind: Ordinal, Domain: ordDomain(1, 2)},
	)
	if err != nil {
		t.Fatal(err)
	}
	tref := MustInstance(tight, Ord(1), Ord(1))
	if _, ok := tight.RandomDisjoint(r, tref); ok {
		t.Fatal("no disjoint instance exists for single-value domains")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := testSpace(t)
	n := 0
	s.Enumerate(func(Instance) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d instances", n)
	}
}

// Property: disjointness is symmetric and implies DiffCount == Len.
func TestDisjointnessProperty(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		a, b := s.RandomInstance(r), s.RandomInstance(r)
		if a.DisjointFrom(b) != b.DisjointFrom(a) {
			return false
		}
		if a.DisjointFrom(b) && a.DiffCount(b) != a.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRoundTripDistinctKinds(t *testing.T) {
	// An ordinal 1 and a categorical "1" must never produce colliding keys.
	s, err := NewSpace(Parameter{Name: "x", Kind: Ordinal, Domain: ordDomain(1)})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSpace(Parameter{Name: "x", Kind: Categorical, Domain: catDomain("1")})
	if err != nil {
		t.Fatal(err)
	}
	k1 := MustInstance(s, Ord(1)).Key()
	k2 := MustInstance(s2, Cat("1")).Key()
	if k1 == k2 {
		t.Fatalf("key collision across kinds: %q", k1)
	}
	if strings.Contains(k1, "\x1f") {
		t.Fatal("single-parameter key must not contain separators")
	}
}
