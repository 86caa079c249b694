package predicate

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/pipeline"
)

// Region is the exact denotation of a conjunction over the finite domains
// of a space: for each parameter, the subset of its domain that the
// conjunction allows. A conjunction's satisfying instances are exactly the
// Cartesian product of the per-parameter allowed sets, which makes
// satisfiability, subset and equality tests cheap and exact.
//
// A region is one slice of packed bit rows, one row per parameter in space
// order. Row i holds ceil(|Domain_i|/64) words, bit j of the row stands for
// Domain_i[j], and the bits past the domain are zero, so every query is a
// pass of word operations and a region costs one allocation. A row's
// offset is the sum of the rows before it (row i is word i when every
// domain fits in one word), read off the space's current domains: a region
// is valid only for the domains it was built over, and one built before an
// AddToDomain must not be used after it.
//
// Regions only reason about domain values: instances carrying values
// outside the declared universe are never contained in any region.
type Region struct {
	space *pipeline.Space
	rows  []uint64
}

// rowWords is the number of words in parameter i's row, one bit per
// domain value. It reads the domain's length off DomainCodes, which holds
// one code per domain value, because At copies the whole Parameter.
func rowWords(s *pipeline.Space, i int) int { return (len(s.DomainCodes(i)) + 63) >> 6 }

// spanMask returns the bits of a row's word k that stand for domain
// indices in [lo, hi).
func spanMask(k, lo, hi int) uint64 {
	a, b := max(lo-64*k, 0), min(hi-64*k, 64)
	if a >= b {
		return 0
	}
	return ^uint64(0) << uint(a) & (^uint64(0) >> uint(64-b))
}

// FullRegion returns the region allowing every domain value of every
// parameter (the denotation of the empty conjunction).
func FullRegion(s *pipeline.Space) Region {
	r := emptyRegion(s)
	off := 0
	for i := 0; i < s.Len(); i++ {
		d, w := len(s.DomainCodes(i)), rowWords(s, i)
		for k := 0; k < w; k++ {
			r.rows[off+k] = spanMask(k, 0, d)
		}
		off += w
	}
	return r
}

// emptyRegion returns the region over s allowing no value at all.
func emptyRegion(s *pipeline.Space) Region {
	n := 0
	for i := 0; i < s.Len(); i++ {
		n += rowWords(s, i)
	}
	return Region{space: s, rows: make([]uint64, n)}
}

// RegionOf computes the region of a conjunction. Triples must validate
// against the space; an invalid triple yields an error rather than a bogus
// region.
func RegionOf(s *pipeline.Space, c Conjunction) (Region, error) {
	r := FullRegion(s)
	for _, t := range c {
		if err := t.Validate(s); err != nil {
			return Region{}, err
		}
		i, _ := s.Index(t.Param)
		r.restrictRow(i, t)
	}
	return r, nil
}

// indexSet is the set of a parameter's domain indices that one triple
// allows: the range [lo, hi), or with neg every index outside it.
type indexSet struct {
	lo, hi int
	neg    bool
}

// has reports whether domain index j is in the set.
func (x indexSet) has(j int) bool { return (x.lo <= j && j < x.hi) != x.neg }

// allowedIndices is the row kernel: it finds the domain indices t allows by
// binary search over dom, which NewSpace and AddToDomain keep sorted by
// Value.Less. Each search predicate is the comparison Holds makes, so NaN,
// ±Inf, -0 and out-of-domain triple values select exactly the indices
// whose values Holds accepts: for a NaN value, Le, Gt and Eq allow nothing
// and Neq allows everything.
func allowedIndices(dom []pipeline.Value, t Triple) indexSet {
	n := len(dom)
	switch t.Cmp {
	case Le:
		x := t.Value.Num()
		return indexSet{lo: 0, hi: sort.Search(n, func(j int) bool { return !(dom[j].Num() <= x) })}
	case Gt:
		x := t.Value.Num()
		return indexSet{lo: sort.Search(n, func(j int) bool { return dom[j].Num() > x }), hi: n}
	case Eq, Neq:
		j := sort.Search(n, func(j int) bool { return !dom[j].Less(t.Value) })
		hi := j
		if j < n && dom[j] == t.Value {
			hi = j + 1
		}
		return indexSet{lo: j, hi: hi, neg: t.Cmp == Neq}
	default:
		panic("predicate: region of invalid comparator")
	}
}

// row returns parameter i's row.
func (r Region) row(i int) []uint64 {
	if len(r.rows) == r.space.Len() {
		// Every domain fits in one word, so row i is word i.
		return r.rows[i : i+1 : i+1]
	}
	off := 0
	for k := 0; k < i; k++ {
		off += rowWords(r.space, k)
	}
	w := rowWords(r.space, i)
	return r.rows[off : off+w : off+w]
}

// restrictRow intersects parameter i's row, in place, with the domain
// indices t allows.
func (r Region) restrictRow(i int, t Triple) {
	x := allowedIndices(r.space.At(i).Domain, t)
	row := r.row(i)
	for k := range row {
		if m := spanMask(k, x.lo, x.hi); x.neg {
			row[k] &^= m
		} else {
			row[k] &= m
		}
	}
}

// Space returns the space the region is defined over.
func (r Region) Space() *pipeline.Space { return r.space }

// Empty reports whether the region contains no instance (some parameter has
// no allowed value).
func (r Region) Empty() bool {
	off := 0
	for i := 0; i < r.space.Len(); i++ {
		w := rowWords(r.space, i)
		set := uint64(0)
		for _, word := range r.rows[off : off+w] {
			set |= word
		}
		if set == 0 {
			return true
		}
		off += w
	}
	return false
}

// Count returns the number of instances in the region, saturating at
// MaxUint64 (exact=false) on overflow.
func (r Region) Count() (n uint64, exact bool) {
	n = 1
	off := 0
	for i := 0; i < r.space.Len(); i++ {
		w := rowWords(r.space, i)
		c := uint64(0)
		for _, word := range r.rows[off : off+w] {
			c += uint64(bits.OnesCount64(word))
		}
		if c != 0 && n > math.MaxUint64/c {
			return math.MaxUint64, false
		}
		n *= c
		off += w
	}
	return n, true
}

// Contains reports whether the instance lies in the region. Instances with
// out-of-domain values are not contained.
func (r Region) Contains(in pipeline.Instance) bool {
	if in.Space() != r.space {
		return false
	}
	off := 0
	for i := 0; i < r.space.Len(); i++ {
		j := r.space.DomainIndex(i, in.Value(i))
		if j < 0 || r.rows[off+j/64]&(1<<uint(j%64)) == 0 {
			return false
		}
		off += rowWords(r.space, i)
	}
	return true
}

// Intersect returns the region of the conjunction of both regions'
// conditions. Both regions must be over the same space.
func (r Region) Intersect(o Region) Region {
	if r.space != o.space {
		panic("predicate: Intersect across spaces")
	}
	out := Region{space: r.space, rows: make([]uint64, len(r.rows))}
	for k, word := range r.rows {
		out.rows[k] = word & o.rows[k]
	}
	return out
}

// restrictNegated intersects a copy of the region with the complement of a
// single triple.
func (r Region) restrictNegated(t Triple) Region {
	return r.restrict(t.Negated())
}

// restrict intersects a copy of the region with a single triple's
// denotation.
func (r Region) restrict(t Triple) Region {
	i, ok := r.space.Index(t.Param)
	if !ok {
		// Unknown parameter: no instance satisfies the triple.
		return emptyRegion(r.space)
	}
	out := Region{space: r.space, rows: slices.Clone(r.rows)}
	out.restrictRow(i, t)
	return out
}

// SubsetOf reports whether every instance of r is in o. Because regions are
// Cartesian products, r ⊆ o iff r is empty or each per-parameter allowed
// set of r is a subset of o's, that is, r &^ o is zero in every word.
func (r Region) SubsetOf(o Region) bool {
	if r.space != o.space {
		return false
	}
	if r.Empty() {
		return true
	}
	for k, word := range r.rows {
		if word&^o.rows[k] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the regions denote the same instance set.
func (r Region) Equal(o Region) bool {
	return r.SubsetOf(o) && o.SubsetOf(r)
}

// AnyInstance returns an arbitrary instance from the region (the first in
// domain order), or ok=false when the region is empty.
func (r Region) AnyInstance() (pipeline.Instance, bool) {
	if r.Empty() {
		return pipeline.Instance{}, false
	}
	codes := make([]uint32, r.space.Len())
	for i := range codes {
		codes[i] = r.AllowedCode(i, 0)
	}
	in, err := r.space.InstanceOfCodes(codes)
	if err != nil {
		return pipeline.Instance{}, false
	}
	return in, true
}

// AllowedCount returns how many of parameter i's domain values the region
// allows.
func (r Region) AllowedCount(i int) int {
	c := 0
	for _, word := range r.row(i) {
		c += bits.OnesCount64(word)
	}
	return c
}

// AllowedCode returns the interned code of the k-th value, in domain order,
// among parameter i's allowed domain values (see pipeline.Space.DomainCodes),
// for 0 <= k < AllowedCount(i).
func (r Region) AllowedCode(i, k int) uint32 {
	for w, word := range r.row(i) {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		j := bits.TrailingZeros64(word)
		if run := word >> uint(j); run&(run+1) == 0 {
			// The word's allowed bits are one run, as a range triple
			// leaves them, so the k-th lies k past the first.
			return r.space.DomainCodes(i)[w*64+j+k]
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		return r.space.DomainCodes(i)[w*64+bits.TrailingZeros64(word)]
	}
	panic("predicate: AllowedCode past the allowed values")
}

// AllowedValues returns the allowed domain values for the named parameter.
func (r Region) AllowedValues(param string) []pipeline.Value {
	i, ok := r.space.Index(param)
	if !ok {
		return nil
	}
	n := r.AllowedCount(i)
	if n == 0 {
		return nil
	}
	dom := r.space.At(i).Domain
	out := make([]pipeline.Value, 0, n)
	for w, word := range r.row(i) {
		for ; word != 0; word &= word - 1 {
			out = append(out, dom[w*64+bits.TrailingZeros64(word)])
		}
	}
	return out
}
