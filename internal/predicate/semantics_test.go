package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pipeline"
)

func TestSatisfiable(t *testing.T) {
	s := testSpace(t)
	ok, err := Satisfiable(s, And(T("p1", Le, pipeline.Ord(2))))
	if err != nil || !ok {
		t.Fatalf("satisfiable: %v, %v", ok, err)
	}
	ok, err = Satisfiable(s, And(T("p1", Gt, pipeline.Ord(4))))
	if err != nil || ok {
		t.Fatalf("p1 > 4 must be unsatisfiable: %v, %v", ok, err)
	}
}

func TestImpliesBasics(t *testing.T) {
	s := testSpace(t)
	c := And(T("p1", Eq, pipeline.Ord(2)))
	d := Or(And(T("p1", Le, pipeline.Ord(3))))
	ok, err := Implies(s, c, d)
	if err != nil || !ok {
		t.Fatalf("p1=2 must imply p1<=3: %v, %v", ok, err)
	}
	ok, err = Implies(s, And(T("p1", Le, pipeline.Ord(3))), Or(c))
	if err != nil || ok {
		t.Fatalf("p1<=3 must not imply p1=2: %v, %v", ok, err)
	}
	// Empty DNF is FALSE: only unsatisfiable conjunctions imply it.
	ok, err = Implies(s, c, DNF{})
	if err != nil || ok {
		t.Fatal("satisfiable conjunction cannot imply FALSE")
	}
	ok, err = Implies(s, And(T("p1", Gt, pipeline.Ord(4))), DNF{})
	if err != nil || !ok {
		t.Fatal("unsatisfiable conjunction implies everything")
	}
}

func TestImpliesDisjunctionSplit(t *testing.T) {
	s := testSpace(t)
	// p1 <= 4 is the whole domain, which is covered by p1<=2 OR p1>2 even
	// though neither disjunct alone covers it.
	c := And(T("p1", Le, pipeline.Ord(4)))
	d := Or(And(T("p1", Le, pipeline.Ord(2))), And(T("p1", Gt, pipeline.Ord(2))))
	ok, err := Implies(s, c, d)
	if err != nil || !ok {
		t.Fatalf("domain must be covered by the split: %v, %v", ok, err)
	}
	// But not by p1<=2 OR p1>3 (value 3 escapes).
	d2 := Or(And(T("p1", Le, pipeline.Ord(2))), And(T("p1", Gt, pipeline.Ord(3))))
	ok, err = Implies(s, c, d2)
	if err != nil || ok {
		t.Fatalf("value 3 escapes the cover: %v, %v", ok, err)
	}
}

// Implies must agree with brute-force enumeration.
func TestImpliesAgainstBruteForce(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(17))
	pool := []Triple{
		T("p1", Eq, pipeline.Ord(2)),
		T("p1", Le, pipeline.Ord(3)),
		T("p1", Gt, pipeline.Ord(1)),
		T("p1", Neq, pipeline.Ord(4)),
		T("p2", Eq, pipeline.Cat("a")),
		T("p2", Neq, pipeline.Cat("b")),
		T("p3", Le, pipeline.Ord(10)),
		T("p3", Gt, pipeline.Ord(10)),
	}
	randConj := func(max int) Conjunction {
		var c Conjunction
		for _, tr := range pool {
			if len(c) < max && r.Intn(4) == 0 {
				c = append(c, tr)
			}
		}
		return c
	}
	f := func() bool {
		c := randConj(3)
		d := DNF{randConj(2), randConj(2)}
		got, err := Implies(s, c, d)
		if err != nil {
			return false
		}
		want := true
		s.Enumerate(func(in pipeline.Instance) bool {
			if c.Satisfied(in) && !d.Satisfied(in) {
				want = false
				return false
			}
			return true
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalent(t *testing.T) {
	s := testSpace(t)
	// On domain {1,2,3,4}: p1 <= 2 is the same set as p1 != 3 AND p1 != 4.
	a := And(T("p1", Le, pipeline.Ord(2)))
	b := And(T("p1", Neq, pipeline.Ord(3)), T("p1", Neq, pipeline.Ord(4)))
	ok, err := Equivalent(s, a, b)
	if err != nil || !ok {
		t.Fatalf("expected equivalence: %v, %v", ok, err)
	}
	ok, err = Equivalent(s, a, And(T("p1", Le, pipeline.Ord(3))))
	if err != nil || ok {
		t.Fatalf("expected non-equivalence: %v, %v", ok, err)
	}
}

func TestDefinitiveAndMinimal(t *testing.T) {
	s := testSpace(t)
	truth := Or(
		And(T("p1", Eq, pipeline.Ord(4))),
		And(T("p2", Eq, pipeline.Cat("b")), T("p3", Gt, pipeline.Ord(10))),
	)
	// p1=4 is definitive and minimal.
	def, err := Definitive(s, And(T("p1", Eq, pipeline.Ord(4))), truth)
	if err != nil || !def {
		t.Fatalf("p1=4 must be definitive: %v, %v", def, err)
	}
	min, err := Minimal(s, And(T("p1", Eq, pipeline.Ord(4))), truth)
	if err != nil || !min {
		t.Fatalf("p1=4 must be minimal: %v, %v", min, err)
	}
	// p1=4 AND p2=a is definitive but not minimal.
	c := And(T("p1", Eq, pipeline.Ord(4)), T("p2", Eq, pipeline.Cat("a")))
	def, err = Definitive(s, c, truth)
	if err != nil || !def {
		t.Fatalf("superset must stay definitive: %v, %v", def, err)
	}
	min, err = Minimal(s, c, truth)
	if err != nil || min {
		t.Fatalf("superset must not be minimal: %v, %v", min, err)
	}
	// p2=b alone is not definitive (needs p3>10).
	def, err = Definitive(s, And(T("p2", Eq, pipeline.Cat("b"))), truth)
	if err != nil || def {
		t.Fatalf("p2=b alone must not be definitive: %v, %v", def, err)
	}
	// The second conjunct is definitive and minimal.
	min, err = Minimal(s, And(T("p2", Eq, pipeline.Cat("b")), T("p3", Gt, pipeline.Ord(10))), truth)
	if err != nil || !min {
		t.Fatalf("second conjunct must be minimal: %v, %v", min, err)
	}
	// Unsatisfiable conjunctions are never definitive.
	def, err = Definitive(s, And(T("p1", Gt, pipeline.Ord(4))), truth)
	if err != nil || def {
		t.Fatalf("unsatisfiable must not be definitive: %v, %v", def, err)
	}
}

func TestMinimize(t *testing.T) {
	s := testSpace(t)
	truth := Or(And(T("p1", Eq, pipeline.Ord(4))))
	c := And(
		T("p1", Eq, pipeline.Ord(4)),
		T("p2", Eq, pipeline.Cat("a")),
		T("p3", Le, pipeline.Ord(20)),
	)
	got, err := Minimize(s, c, truth)
	if err != nil {
		t.Fatal(err)
	}
	want := And(T("p1", Eq, pipeline.Ord(4)))
	if !got.EqualSyntactic(want) {
		t.Fatalf("Minimize = %v, want %v", got, want)
	}
	// Minimizing a non-definitive conjunction fails.
	if _, err := Minimize(s, And(T("p2", Eq, pipeline.Cat("a"))), truth); err == nil {
		t.Fatal("minimizing non-definitive conjunction must fail")
	}
}

func TestMinimalSubsets(t *testing.T) {
	s := testSpace(t)
	truth := Or(
		And(T("p1", Eq, pipeline.Ord(4))),
		And(T("p2", Eq, pipeline.Cat("b"))),
	)
	c := And(T("p1", Eq, pipeline.Ord(4)), T("p2", Eq, pipeline.Cat("b")), T("p3", Eq, pipeline.Ord(10)))
	subs, err := MinimalSubsets(s, c, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("MinimalSubsets = %v, want the two singletons", subs)
	}
	for _, sub := range subs {
		if len(sub) != 1 {
			t.Fatalf("non-singleton minimal subset %v", sub)
		}
		min, err := Minimal(s, sub, truth)
		if err != nil || !min {
			t.Fatalf("subset %v not minimal: %v, %v", sub, min, err)
		}
	}
}

// Property: Minimize output is always Minimal, and supersets of definitive
// causes stay definitive (monotonicity used by the Minimal shortcut).
func TestMinimizeProducesMinimalProperty(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(23))
	truth := Or(
		And(T("p1", Eq, pipeline.Ord(4))),
		And(T("p2", Eq, pipeline.Cat("b")), T("p3", Gt, pipeline.Ord(10))),
	)
	pool := []Triple{
		T("p1", Eq, pipeline.Ord(4)),
		T("p2", Eq, pipeline.Cat("b")),
		T("p3", Gt, pipeline.Ord(10)),
		T("p3", Eq, pipeline.Ord(20)),
		T("p1", Neq, pipeline.Ord(1)),
		T("p2", Neq, pipeline.Cat("a")),
	}
	f := func() bool {
		var c Conjunction
		for _, tr := range pool {
			if r.Intn(2) == 0 {
				c = append(c, tr)
			}
		}
		def, err := Definitive(s, c, truth)
		if err != nil || !def {
			return true // property only constrains definitive inputs
		}
		m, err := Minimize(s, c, truth)
		if err != nil {
			return false
		}
		min, err := Minimal(s, m, truth)
		return err == nil && min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentDNF(t *testing.T) {
	s := testSpace(t)
	d1 := Or(And(T("p1", Le, pipeline.Ord(2))), And(T("p1", Gt, pipeline.Ord(2))))
	d2 := Or(Conjunction{}) // TRUE
	ok, err := EquivalentDNF(s, d1, d2)
	if err != nil || !ok {
		t.Fatalf("split covers everything: %v, %v", ok, err)
	}
	d3 := Or(And(T("p1", Le, pipeline.Ord(2))))
	ok, err = EquivalentDNF(s, d1, d3)
	if err != nil || ok {
		t.Fatalf("expected non-equivalence: %v, %v", ok, err)
	}
}

// TestImpliesUnionCovers checks Implies against enumeration on DNFs of up
// to four non-empty conjuncts, counting the covers that need the union of
// several conjuncts, where coveredBy branches and reuses the conjuncts'
// regions across branches.
func TestImpliesUnionCovers(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(23))
	var pool []Triple
	for _, p := range []string{"p1", "p3"} {
		for _, v := range s.Domain(p) {
			for _, c := range []Comparator{Eq, Neq, Le, Gt} {
				pool = append(pool, T(p, c, v))
			}
		}
	}
	for _, v := range s.Domain("p2") {
		pool = append(pool, T("p2", Eq, v), T("p2", Neq, v))
	}
	conj := func(n int) Conjunction {
		c := make(Conjunction, n)
		for k := range c {
			c[k] = pool[r.Intn(len(pool))]
		}
		return c
	}
	unions := 0
	for trial := 0; trial < 3000; trial++ {
		c := conj(r.Intn(3))
		d := make(DNF, 1+r.Intn(4))
		for k := range d {
			d[k] = conj(1 + r.Intn(2))
		}
		got, err := Implies(s, c, d)
		if err != nil {
			t.Fatal(err)
		}
		want, single := true, false
		s.Enumerate(func(in pipeline.Instance) bool {
			if c.Satisfied(in) && !d.Satisfied(in) {
				want = false
				return false
			}
			return true
		})
		for _, dc := range d {
			if ok, _ := Implies(s, c, DNF{dc}); ok {
				single = true
			}
		}
		if got != want {
			t.Fatalf("Implies(%v, %v) = %v, enumeration says %v", c, d, got, want)
		}
		if want && !single {
			unions++
		}
	}
	if unions < 100 {
		t.Fatalf("only %d covers needed a union of conjuncts", unions)
	}
}
