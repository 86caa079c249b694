package pipeline

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func ordDomain(vals ...float64) []Value {
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = Ord(v)
	}
	return out
}

func catDomain(vals ...string) []Value {
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = Cat(v)
	}
	return out
}

func testSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(
		Parameter{Name: "p1", Kind: Ordinal, Domain: ordDomain(1, 2, 3, 4)},
		Parameter{Name: "p2", Kind: Categorical, Domain: catDomain("a", "b", "c")},
		Parameter{Name: "p3", Kind: Ordinal, Domain: ordDomain(10, 20)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	cases := []struct {
		name   string
		params []Parameter
		want   string
	}{
		{"empty", nil, "at least one parameter"},
		{"noName", []Parameter{{Kind: Ordinal, Domain: ordDomain(1)}}, "empty name"},
		{"dupName", []Parameter{
			{Name: "x", Kind: Ordinal, Domain: ordDomain(1)},
			{Name: "x", Kind: Ordinal, Domain: ordDomain(2)},
		}, "duplicate"},
		{"badKind", []Parameter{{Name: "x", Domain: ordDomain(1)}}, "invalid kind"},
		{"emptyDomain", []Parameter{{Name: "x", Kind: Ordinal}}, "empty domain"},
		{"kindMismatch", []Parameter{{Name: "x", Kind: Ordinal, Domain: catDomain("a")}}, "domain value"},
		{"nan", []Parameter{{Name: "x", Kind: Ordinal, Domain: []Value{Ord(math.NaN())}}}, "non-finite"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSpace(c.params...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewSpace error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestSpaceDomainSortedDeduped(t *testing.T) {
	s, err := NewSpace(Parameter{Name: "x", Kind: Ordinal, Domain: ordDomain(3, 1, 3, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dom := s.Domain("x")
	want := ordDomain(1, 2, 3)
	if len(dom) != len(want) {
		t.Fatalf("domain = %v, want %v", dom, want)
	}
	for i := range dom {
		if dom[i] != want[i] {
			t.Fatalf("domain = %v, want %v", dom, want)
		}
	}
}

func TestSpaceLookups(t *testing.T) {
	s := testSpace(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	i, ok := s.Index("p2")
	if !ok || i != 1 {
		t.Fatalf("Index(p2) = %d, %v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Fatal("Index must report missing parameters")
	}
	if got := s.At(1).Name; got != "p2" {
		t.Fatalf("At(1).Name = %q", got)
	}
	if d := s.Domain("nope"); d != nil {
		t.Fatalf("Domain(nope) = %v, want nil", d)
	}
	if j := s.DomainIndex(0, Ord(3)); j != 2 {
		t.Fatalf("DomainIndex(p1, 3) = %d", j)
	}
	if j := s.DomainIndex(0, Ord(99)); j != -1 {
		t.Fatalf("DomainIndex(p1, 99) = %d", j)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "p1" || names[2] != "p3" {
		t.Fatalf("Names = %v", names)
	}
}

func TestAddToDomain(t *testing.T) {
	s := testSpace(t)
	if err := s.AddToDomain("p1", Ord(2.5)); err != nil {
		t.Fatal(err)
	}
	if j := s.DomainIndex(0, Ord(2.5)); j != 2 {
		t.Fatalf("expanded domain not sorted: index of 2.5 is %d, domain %v", j, s.Domain("p1"))
	}
	// Idempotent.
	if err := s.AddToDomain("p1", Ord(2.5)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Domain("p1")); n != 5 {
		t.Fatalf("domain length after duplicate add = %d", n)
	}
	if err := s.AddToDomain("p1", Cat("x")); err == nil {
		t.Fatal("kind mismatch must fail")
	}
	if err := s.AddToDomain("nope", Ord(1)); err == nil {
		t.Fatal("unknown parameter must fail")
	}
	if err := s.AddToDomain("p1", Ord(math.NaN())); err == nil {
		t.Fatal("NaN must fail")
	}
	if n := len(s.Domain("p1")); n != 5 {
		t.Fatalf("domain length after a refused NaN = %d", n)
	}
	if err := s.AddToDomain("p1", Ord(math.Inf(1))); err != nil {
		t.Fatal(err)
	}
	if dom := s.Domain("p1"); dom[len(dom)-1] != Ord(math.Inf(1)) {
		t.Fatalf("+Inf does not sort last: domain %v", dom)
	}
}

// TestAddToDomainKeepsSnapshots checks that AddToDomain leaves what a
// reader already holds alone: a fresh space's domain slice is its
// parameter's published code→value table, so sorting the grown domain in
// place would reorder the table under every earlier code and snapshot. The
// declared domain repeats a value, so the deduplicated one is shorter than
// the slice it was built in. A second add checks the same for a domain
// that AddToDomain grew.
func TestAddToDomainKeepsSnapshots(t *testing.T) {
	for _, v := range []Value{Ord(2.5), Ord(0), Ord(9)} {
		s := MustSpace(Parameter{Name: "p1", Kind: Ordinal, Domain: ordDomain(4, 1, 3, 2, 3)})
		vals, rank := s.ValueOrder(0)
		wantVals, wantRank := slices.Clone(vals), slices.Clone(rank)
		dom := s.Domain("p1")
		wantDom := slices.Clone(dom)
		if err := s.AddToDomain("p1", v); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(vals, wantVals) || !slices.Equal(rank, wantRank) {
			t.Fatalf("adding %v: ValueOrder snapshot changed from %v %v to %v %v", v, wantVals, wantRank, vals, rank)
		}
		if !slices.Equal(dom, wantDom) {
			t.Fatalf("adding %v: the earlier domain slice changed from %v to %v", v, wantDom, dom)
		}
		for c, want := range wantVals {
			if got := s.InternedValue(0, uint32(c)); got != want {
				t.Fatalf("adding %v: code %d now holds %v, want %v", v, c, got, want)
			}
		}
		if err := checkValueOrder(s.ValueOrder(0)); err != nil {
			t.Fatalf("adding %v: %v", v, err)
		}
		// A grown domain may have spare capacity: the next add must not
		// sort into it under a reader of the grown domain either.
		grown := s.Domain("p1")
		wantGrown := slices.Clone(grown)
		if err := s.AddToDomain("p1", Ord(-1)); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(grown, wantGrown) {
			t.Fatalf("adding %v then -1: the grown domain slice changed from %v to %v", v, wantGrown, grown)
		}
	}
}

// TestNewSpaceAllocs pins the cost of building a space: each parameter's
// intern table is seeded in one step, one map sized to the domain and one
// published column, not one column per domain value.
func TestNewSpaceAllocs(t *testing.T) {
	for _, c := range []struct{ values, allocs int }{{8, 72}, {30, 147}} {
		params := make([]Parameter, 15)
		for i := range params {
			dom := make([]Value, c.values)
			for j := range dom {
				dom[j] = Ord(float64(c.values - j))
			}
			params[i] = Parameter{Name: fmt.Sprintf("p%02d", i), Kind: Ordinal, Domain: dom}
		}
		if n := testing.AllocsPerRun(20, func() { MustSpace(params...) }); n > float64(c.allocs) {
			t.Errorf("NewSpace of 15 parameters with %d values allocated %v times, want at most %d", c.values, n, c.allocs)
		}
	}
}

func TestNumInstances(t *testing.T) {
	s := testSpace(t)
	n, exact := s.NumInstances()
	if !exact || n != 4*3*2 {
		t.Fatalf("NumInstances = %d, %v", n, exact)
	}
	// Overflow: 64 parameters with 4 values each is 2^128.
	params := make([]Parameter, 64)
	for i := range params {
		params[i] = Parameter{Name: string(rune('A'+i%26)) + string(rune('a'+i/26)), Kind: Ordinal, Domain: ordDomain(1, 2, 3, 4)}
	}
	big, err := NewSpace(params...)
	if err != nil {
		t.Fatal(err)
	}
	if _, exact := big.NumInstances(); exact {
		t.Fatal("expected overflow to be reported")
	}
}

func TestSpaceString(t *testing.T) {
	s := testSpace(t)
	want := "p1(ordinal:4), p2(categorical:3), p3(ordinal:2)"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestDomainCodes checks that DomainCodes lists each domain value's code
// in domain order, on a fresh space and after AddToDomain inserts values
// into the middle of a domain, one of them interned out of domain first.
func TestDomainCodes(t *testing.T) {
	s := testSpace(t)
	check := func(when string) {
		t.Helper()
		for i := 0; i < s.Len(); i++ {
			dom, codes := s.At(i).Domain, s.DomainCodes(i)
			if len(codes) != len(dom) {
				t.Fatalf("%s: parameter %d has %d domain codes for %d values", when, i, len(codes), len(dom))
			}
			for j, v := range dom {
				if got := s.InternedValue(i, codes[j]); got != v {
					t.Fatalf("%s: parameter %d domain code %d holds %v, want %v", when, i, codes[j], got, v)
				}
			}
		}
	}
	check("fresh")
	for i := 0; i < s.Len(); i++ {
		for j, c := range s.DomainCodes(i) {
			if c != uint32(j) {
				t.Fatalf("fresh parameter %d: domain index %d has code %d", i, j, c)
			}
		}
	}
	s.Intern(0, Ord(1.5))
	if err := s.AddToDomain("p1", Ord(2.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToDomain("p1", Ord(1.5)); err != nil {
		t.Fatal(err)
	}
	check("expanded")
	if j := s.DomainIndex(0, Ord(1.5)); s.DomainCodes(0)[j] == uint32(j) {
		t.Fatalf("domain index %d of an expanded domain still equals its code", j)
	}
}
