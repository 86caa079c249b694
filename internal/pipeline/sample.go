package pipeline

import "math/rand"

// RandomInstance draws an instance uniformly from the Cartesian product of
// the parameter domains.
func (s *Space) RandomInstance(r *rand.Rand) Instance {
	codes := make([]uint32, s.Len())
	for i := range codes {
		dom := s.domainCodes[i]
		codes[i] = dom[r.Intn(len(dom))]
	}
	return s.instance(codes)
}

// RandomDisjoint draws an instance uniformly among those disjoint from ref
// (different value on every parameter, Definition 6). It returns ok=false
// when some parameter has a single-value domain, in which case no disjoint
// instance exists.
func (s *Space) RandomDisjoint(r *rand.Rand, ref Instance) (Instance, bool) {
	codes := make([]uint32, s.Len())
	for i := range codes {
		dom := s.domainCodes[i]
		refIdx := s.DomainIndex(i, ref.Value(i))
		n := len(dom)
		if refIdx >= 0 {
			n--
		}
		if n == 0 {
			return Instance{}, false
		}
		j := r.Intn(n)
		if refIdx >= 0 && j >= refIdx {
			j++
		}
		codes[i] = dom[j]
	}
	return s.instance(codes), true
}

// Enumerate calls yield for every instance in the Cartesian product, in
// lexicographic domain order, stopping early if yield returns false.
// It is intended for small spaces; callers should consult NumInstances.
func (s *Space) Enumerate(yield func(Instance) bool) {
	idx := make([]int, s.Len())
	for {
		codes := make([]uint32, s.Len())
		for i, j := range idx {
			codes[i] = s.domainCodes[i][j]
		}
		if !yield(s.instance(codes)) {
			return
		}
		// Advance the mixed-radix counter.
		i := s.Len() - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.domainCodes[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}
