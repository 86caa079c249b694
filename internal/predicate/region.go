package predicate

import (
	"math"

	"repro/internal/pipeline"
)

// Region is the exact denotation of a conjunction over the finite domains
// of a space: for each parameter, the subset of its domain that the
// conjunction allows. A conjunction's satisfying instances are exactly the
// Cartesian product of the per-parameter allowed sets, which makes
// satisfiability, subset and equality tests cheap and exact.
//
// Regions only reason about domain values: instances carrying values
// outside the declared universe are never contained in any region.
type Region struct {
	space   *pipeline.Space
	allowed [][]bool // [param][domainIndex], rows cut from one backing array
}

// FullRegion returns the region allowing every domain value of every
// parameter (the denotation of the empty conjunction).
func FullRegion(s *pipeline.Space) Region {
	n := 0
	for i := 0; i < s.Len(); i++ {
		n += len(s.At(i).Domain)
	}
	cells := make([]bool, n)
	for j := range cells {
		cells[j] = true
	}
	allowed := make([][]bool, s.Len())
	for i := range allowed {
		d := len(s.At(i).Domain)
		allowed[i], cells = cells[:d:d], cells[d:]
	}
	return Region{space: s, allowed: allowed}
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
		dom := s.At(i).Domain
		for j, v := range dom {
			if r.allowed[i][j] && !t.Holds(v) {
				r.allowed[i][j] = false
			}
		}
	}
	return r, nil
}

// Space returns the space the region is defined over.
func (r Region) Space() *pipeline.Space { return r.space }

// Empty reports whether the region contains no instance (some parameter has
// no allowed value).
func (r Region) Empty() bool {
	for _, row := range r.allowed {
		any := false
		for _, ok := range row {
			if ok {
				any = true
				break
			}
		}
		if !any {
			return true
		}
	}
	return false
}

// Count returns the number of instances in the region, saturating at
// MaxUint64 (exact=false) on overflow.
func (r Region) Count() (n uint64, exact bool) {
	n = 1
	for _, row := range r.allowed {
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

// Contains reports whether the instance lies in the region. Instances with
// out-of-domain values are not contained.
func (r Region) Contains(in pipeline.Instance) bool {
	if in.Space() != r.space {
		return false
	}
	for i := range r.allowed {
		j := r.space.DomainIndex(i, in.Value(i))
		if j < 0 || !r.allowed[i][j] {
			return false
		}
	}
	return true
}

// Intersect returns the region of the conjunction of both regions'
// conditions. Both regions must be over the same space.
func (r Region) Intersect(o Region) Region {
	if r.space != o.space {
		panic("predicate: Intersect across spaces")
	}
	out := r.clone()
	for i, row := range out.allowed {
		for j := range row {
			row[j] = row[j] && o.allowed[i][j]
		}
	}
	return out
}

// restrictNegated intersects the region, in place on a copy, with the
// complement of a single triple.
func (r Region) restrictNegated(t Triple) Region {
	return r.restrict(t.Negated())
}

// restrict intersects the region with a single triple's denotation.
func (r Region) restrict(t Triple) Region {
	i, ok := r.space.Index(t.Param)
	if !ok {
		// Unknown parameter: no instance satisfies the triple.
		out := r.clone()
		for j := range out.allowed {
			for k := range out.allowed[j] {
				out.allowed[j][k] = false
			}
		}
		return out
	}
	out := r.clone()
	dom := r.space.At(i).Domain
	for j, v := range dom {
		if out.allowed[i][j] && !t.Holds(v) {
			out.allowed[i][j] = false
		}
	}
	return out
}

// clone copies the region into rows cut from one backing array.
func (r Region) clone() Region {
	n := 0
	for _, row := range r.allowed {
		n += len(row)
	}
	cells := make([]bool, n)
	out := Region{space: r.space, allowed: make([][]bool, len(r.allowed))}
	for i, row := range r.allowed {
		out.allowed[i], cells = cells[:len(row):len(row)], cells[len(row):]
		copy(out.allowed[i], row)
	}
	return out
}

// SubsetOf reports whether every instance of r is in o. Because regions are
// Cartesian products, r ⊆ o iff r is empty or each per-parameter allowed
// set of r is a subset of o's.
func (r Region) SubsetOf(o Region) bool {
	if r.space != o.space {
		return false
	}
	if r.Empty() {
		return true
	}
	for i := range r.allowed {
		for j := range r.allowed[i] {
			if r.allowed[i][j] && !o.allowed[i][j] {
				return false
			}
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
	vals := make([]pipeline.Value, r.space.Len())
	for i, row := range r.allowed {
		found := false
		for j, ok := range row {
			if ok {
				vals[i] = r.space.At(i).Domain[j]
				found = true
				break
			}
		}
		if !found {
			return pipeline.Instance{}, false
		}
	}
	in, err := pipeline.NewInstance(r.space, vals)
	if err != nil {
		return pipeline.Instance{}, false
	}
	return in, true
}

// AllowedCodes appends the interned codes of parameter i's allowed domain
// values to dst, in domain order (see pipeline.Space.DomainCodes), and
// returns the extended slice.
func (r Region) AllowedCodes(i int, dst []uint32) []uint32 {
	codes := r.space.DomainCodes(i)
	for j, allow := range r.allowed[i] {
		if allow {
			dst = append(dst, codes[j])
		}
	}
	return dst
}

// AllowedValues returns the allowed domain values for the named parameter.
func (r Region) AllowedValues(param string) []pipeline.Value {
	i, ok := r.space.Index(param)
	if !ok {
		return nil
	}
	n := 0
	for _, allow := range r.allowed[i] {
		if allow {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]pipeline.Value, 0, n)
	for j, allow := range r.allowed[i] {
		if allow {
			out = append(out, r.space.At(i).Domain[j])
		}
	}
	return out
}
