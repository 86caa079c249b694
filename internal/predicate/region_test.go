package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// The rows are packed into one slice of words: a region costs one
	// allocation, whatever its parameter count.
	if n := testing.AllocsPerRun(100, func() { regionSink = FullRegion(s) }); n != 1 {
		t.Fatalf("FullRegion allocated %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { regionSink = r.Intersect(r) }); n != 1 {
		t.Fatalf("Intersect allocated %v times, want 1", n)
	}
	c := And(T("p1", Le, pipeline.Ord(2)), T("p2", Neq, pipeline.Cat("c")), T("p1", Gt, pipeline.Ord(1)))
	if n := testing.AllocsPerRun(100, func() { regionSink, _ = RegionOf(s, c) }); n != 1 {
		t.Fatalf("RegionOf allocated %v times, want 1", n)
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

// refRegion is the reference the row kernel is held to: one bool per
// domain value, each set by calling Triple.Holds on that value.
type refRegion [][]bool

func refFull(s *pipeline.Space) refRegion {
	ref := make(refRegion, s.Len())
	for i := range ref {
		ref[i] = make([]bool, len(s.At(i).Domain))
		for j := range ref[i] {
			ref[i][j] = true
		}
	}
	return ref
}

// restrict returns a copy of ref intersected with t's denotation. An
// unknown parameter allows nothing.
func (ref refRegion) restrict(s *pipeline.Space, t Triple) refRegion {
	out := make(refRegion, len(ref))
	i, ok := s.Index(t.Param)
	for k := range ref {
		out[k] = slices.Clone(ref[k])
		if !ok {
			clear(out[k])
		}
	}
	if ok {
		for j, v := range s.At(i).Domain {
			out[i][j] = out[i][j] && t.Holds(v)
		}
	}
	return out
}

func refOf(s *pipeline.Space, c Conjunction) refRegion {
	ref := refFull(s)
	for _, t := range c {
		ref = ref.restrict(s, t)
	}
	return ref
}

func (ref refRegion) intersect(o refRegion) refRegion {
	out := make(refRegion, len(ref))
	for i := range ref {
		out[i] = make([]bool, len(ref[i]))
		for j := range ref[i] {
			out[i][j] = ref[i][j] && o[i][j]
		}
	}
	return out
}

func (ref refRegion) empty() bool {
	for _, row := range ref {
		if !slices.Contains(row, true) {
			return true
		}
	}
	return false
}

func (ref refRegion) count() (uint64, bool) {
	n := uint64(1)
	for _, row := range ref {
		c := uint64(0)
		for _, ok := range row {
			if ok {
				c++
			}
		}
		if c != 0 && n > math.MaxUint64/c {
			return math.MaxUint64, false
		}
		n *= c
	}
	return n, true
}

func (ref refRegion) subsetOf(o refRegion) bool {
	if ref.empty() {
		return true
	}
	for i := range ref {
		for j := range ref[i] {
			if ref[i][j] && !o[i][j] {
				return false
			}
		}
	}
	return true
}

// checkRegion fails unless r holds exactly ref's bits in rows packed in
// parameter order, each ceil(|Domain|/64) words with the bits past the
// domain zero, and every row reader and query agrees with ref.
func checkRegion(t *testing.T, what string, r Region, ref refRegion) {
	t.Helper()
	s := r.Space()
	off := 0
	for i, want := range ref {
		dom, codes := s.At(i).Domain, s.DomainCodes(i)
		words := (len(dom) + 63) / 64
		var allowedCodes []uint32
		var allowedVals []pipeline.Value
		for j := 0; j < 64*words; j++ {
			got := r.rows[off+j/64]>>(j%64)&1 == 1
			if got != (j < len(want) && want[j]) {
				t.Fatalf("%s: parameter %d bit %d is %v, reference %v (domain %v)", what, i, j, got, j < len(want) && want[j], dom)
			}
			if got {
				allowedCodes = append(allowedCodes, codes[j])
				allowedVals = append(allowedVals, dom[j])
			}
		}
		off += words
		if n := r.AllowedCount(i); n != len(allowedCodes) {
			t.Fatalf("%s: AllowedCount(%d) = %d, want %d", what, i, n, len(allowedCodes))
		}
		for k, c := range allowedCodes {
			if got := r.AllowedCode(i, k); got != c {
				t.Fatalf("%s: AllowedCode(%d, %d) = %d, want %d", what, i, k, got, c)
			}
		}
		if got := r.AllowedValues(s.At(i).Name); !slices.Equal(got, allowedVals) {
			t.Fatalf("%s: AllowedValues(%d) = %v, want %v", what, i, got, allowedVals)
		}
	}
	if off != len(r.rows) {
		t.Fatalf("%s: %d words for rows of %d", what, len(r.rows), off)
	}
	if got, want := r.Empty(), ref.empty(); got != want {
		t.Fatalf("%s: Empty = %v, reference %v", what, got, want)
	}
	n, exact := r.Count()
	if wn, wexact := ref.count(); n != wn || exact != wexact {
		t.Fatalf("%s: Count = %d, %v, reference %d, %v", what, n, exact, wn, wexact)
	}
}

// randomKernelSpace draws a space of 1–4 parameters with 1–200 domain
// values each, so rows span up to four words. Ordinal domains are drawn
// from the multiples of 0.5 in [-40, 160], which include 0, categorical
// ones from two-letter labels. Half the spaces then grow through
// AddToDomain: by a value interned out of domain first (so domain indices
// no longer equal codes), by a fresh one, and for ordinals by ±Inf.
func randomKernelSpace(r *rand.Rand) *pipeline.Space {
	params := make([]pipeline.Parameter, 1+r.Intn(4))
	for i := range params {
		d := 1 + r.Intn(200)
		if r.Intn(2) == 0 {
			d = 1 + r.Intn(8)
		}
		dom := make([]pipeline.Value, d)
		p := pipeline.Parameter{Name: fmt.Sprintf("p%d", i), Kind: pipeline.Ordinal, Domain: dom}
		if r.Intn(2) == 0 {
			for j, k := range r.Perm(401)[:d] {
				dom[j] = pipeline.Ord(float64(k)/2 - 40)
			}
		} else {
			p.Kind = pipeline.Categorical
			for j, k := range r.Perm(26 * 26)[:d] {
				dom[j] = pipeline.Cat(string([]byte{byte('a' + k/26), byte('a' + k%26)}))
			}
		}
		params[i] = p
	}
	s := pipeline.MustSpace(params...)
	if r.Intn(2) == 0 {
		return s
	}
	for i, p := range params {
		grow := []pipeline.Value{pipeline.Ord(float64(r.Intn(200)) + 0.25), pipeline.Ord(float64(r.Intn(200)) - 39.75)}
		if p.Kind == pipeline.Categorical {
			grow = []pipeline.Value{pipeline.Cat(fmt.Sprintf("m%d", r.Intn(100))), pipeline.Cat(fmt.Sprintf("%dz", r.Intn(100)))}
		} else if r.Intn(2) == 0 {
			grow = append(grow, pipeline.Ord(math.Inf(1)), pipeline.Ord(math.Inf(-1)))
		}
		s.Intern(i, grow[0])
		for _, v := range grow {
			if err := s.AddToDomain(p.Name, v); err != nil {
				panic(err)
			}
		}
	}
	return s
}

// randomKernelTriple draws a valid triple on parameter i of s whose value
// is a domain value or an out-of-domain one, and for ordinals also NaN,
// ±Inf or -0.
func randomKernelTriple(r *rand.Rand, s *pipeline.Space, i int) Triple {
	p := s.At(i)
	if p.Kind == pipeline.Categorical {
		v := p.Domain[r.Intn(len(p.Domain))]
		if r.Intn(3) == 0 {
			v = pipeline.Cat(string([]byte{byte('a' + r.Intn(27)), byte('a' + r.Intn(26))}))
		}
		return T(p.Name, []Comparator{Eq, Neq}[r.Intn(2)], v)
	}
	var v pipeline.Value
	switch r.Intn(9) {
	case 0:
		v = pipeline.Ord(math.NaN())
	case 1:
		v = pipeline.Ord(math.Inf(1))
	case 2:
		v = pipeline.Ord(math.Inf(-1))
	case 3:
		v = pipeline.Ord(math.Copysign(0, -1))
	case 4:
		v = pipeline.Ord(float64(r.Intn(1000))/4 - 45)
	default:
		v = p.Domain[r.Intn(len(p.Domain))]
	}
	return T(p.Name, []Comparator{Eq, Neq, Le, Gt}[r.Intn(4)], v)
}

// TestRowKernelMatchesHolds is the row kernel's differential: on random
// spaces, RegionOf, restrict and restrictNegated, Intersect, the queries
// and the row readers agree with a reference that calls Triple.Holds on
// every domain value, and tryMerge merges two triples exactly when Holds
// says one of them accepts every domain value.
func TestRowKernelMatchesHolds(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	merged := map[bool]int{}
	for trial := 0; trial < 1500; trial++ {
		s := randomKernelSpace(r)
		conj := func() Conjunction {
			var c Conjunction
			for k := r.Intn(4); k > 0; k-- {
				c = append(c, randomKernelTriple(r, s, r.Intn(s.Len())))
			}
			return c
		}
		c1, c2 := conj(), conj()
		name := fmt.Sprintf("trial %d (%v)", trial, s)
		r1, ref1 := mustRegion(t, s, c1), refOf(s, c1)
		checkRegion(t, fmt.Sprintf("%s: RegionOf(%v)", name, c1), r1, ref1)
		r2, ref2 := mustRegion(t, s, c2), refOf(s, c2)
		checkRegion(t, fmt.Sprintf("%s: RegionOf(%v)", name, c2), r2, ref2)
		if got, want := r1.SubsetOf(r2), ref1.subsetOf(ref2); got != want {
			t.Fatalf("%s: %v SubsetOf %v = %v, reference %v", name, c1, c2, got, want)
		}
		if got, want := r1.Equal(r2), ref1.subsetOf(ref2) && ref2.subsetOf(ref1); got != want {
			t.Fatalf("%s: %v Equal %v = %v, reference %v", name, c1, c2, got, want)
		}
		checkRegion(t, name+": Intersect", r1.Intersect(r2), ref1.intersect(ref2))

		tr := randomKernelTriple(r, s, r.Intn(s.Len()))
		if r.Intn(8) == 0 {
			tr.Param = "unknown"
		}
		before := slices.Clone(r1.rows)
		checkRegion(t, fmt.Sprintf("%s: restrict(%v)", name, tr), r1.restrict(tr), ref1.restrict(s, tr))
		checkRegion(t, fmt.Sprintf("%s: restrictNegated(%v)", name, tr), r1.restrictNegated(tr), ref1.restrict(s, tr.Negated()))
		if !slices.Equal(r1.rows, before) {
			t.Fatalf("%s: restricting %v wrote into the region it copies", name, tr)
		}

		i := r.Intn(s.Len())
		t1, t2 := randomKernelTriple(r, s, i), randomKernelTriple(r, s, i)
		if r.Intn(4) == 0 {
			t2 = t1.Negated()
		}
		covers := true
		for _, v := range s.At(i).Domain {
			covers = covers && (t1.Holds(v) || t2.Holds(v))
		}
		got, ok, err := tryMerge(s, And(t1), And(t2))
		if err != nil {
			t.Fatal(err)
		}
		if want := covers || t1 == t2; ok != want || ok && len(got) != 0 && t1 != t2 {
			t.Fatalf("%s: tryMerge(%v, %v) = %v, %v, want merged %v", name, t1, t2, got, ok, want)
		}
		merged[ok]++
	}
	if merged[true] < 100 || merged[false] < 100 {
		t.Fatalf("tryMerge outcomes covered: merged %d, kept %d", merged[true], merged[false])
	}
}
