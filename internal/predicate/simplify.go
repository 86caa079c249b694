package predicate

import (
	"sort"

	"repro/internal/pipeline"
	"repro/internal/qmc"
)

// SimplifyDNF produces a smaller DNF equivalent to d over the space's
// domains, following the paper's use of Quine-McCluskey to remove
// redundancies from Debugging Decision Tree output. The steps are:
//
//  1. per-conjunct literal reduction (drop triples that do not change the
//     conjunct's region, e.g. "p <= 9" when the whole domain is <= 9);
//  2. removal of unsatisfiable conjuncts;
//  3. iterative pairwise combination, the multi-valued generalization of
//     the QMC merge step: two conjuncts identical except for one triple
//     merge into their common part when the two triples jointly cover the
//     parameter's domain;
//  4. region-level absorption (a conjunct contained in another is dropped);
//  5. irredundant cover: a conjunct implied by the union of the others is
//     dropped (the QMC cover step specialized to our region algebra).
//
// When every parameter mentioned by d is binary (domain size 2) the exact
// classic QMC runs instead of steps 3-5, mirroring the paper precisely.
//
// The result is always equivalent to the input; tests verify this with the
// region algebra.
func SimplifyDNF(s *pipeline.Space, d DNF) (DNF, error) {
	if err := d.Validate(s); err != nil {
		return nil, err
	}
	work := make(DNF, 0, len(d))
	for _, c := range d {
		rc, err := reduceLiterals(s, c.Canonical())
		if err != nil {
			return nil, err
		}
		sat, err := Satisfiable(s, rc)
		if err != nil {
			return nil, err
		}
		if sat {
			work = append(work, rc)
		}
	}
	if len(work) == 0 {
		return DNF{}, nil
	}

	if bin, ok := binaryEncoding(s, work); ok {
		return bin.minimize(work)
	}

	merged, err := mergeFixpoint(s, work)
	if err != nil {
		return nil, err
	}
	absorbed, err := absorb(s, merged)
	if err != nil {
		return nil, err
	}
	return irredundant(s, absorbed)
}

// reduceLiterals drops triples whose removal leaves the conjunct's region
// unchanged. It scans repeatedly until a fixpoint so that mutually
// redundant triples collapse deterministically.
func reduceLiterals(s *pipeline.Space, c Conjunction) (Conjunction, error) {
	r, err := RegionOf(s, c)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(c); {
		sub := c.Without(i)
		rs, err := RegionOf(s, sub)
		if err != nil {
			return nil, err
		}
		if rs.Equal(r) {
			c = sub
			i = 0
			continue
		}
		i++
	}
	return c, nil
}

// mergeFixpoint applies the generalized QMC combine step until no pair of
// conjuncts merges. Conjuncts that take part in a merge are replaced by the
// merged form; untouched conjuncts survive (they are "prime" relative to
// this merge rule).
func mergeFixpoint(s *pipeline.Space, d DNF) (DNF, error) {
	current := d.Canonical()
	for {
		mergedAny := false
		used := make([]bool, len(current))
		var next DNF
		for i := 0; i < len(current); i++ {
			for j := i + 1; j < len(current); j++ {
				m, ok, err := tryMerge(s, current[i], current[j])
				if err != nil {
					return nil, err
				}
				if ok {
					next = append(next, m)
					used[i], used[j] = true, true
					mergedAny = true
				}
			}
		}
		for i, c := range current {
			if !used[i] {
				next = append(next, c)
			}
		}
		current = next.Canonical()
		if !mergedAny {
			return current, nil
		}
	}
}

// tryMerge merges two canonical conjuncts that are identical except for one
// triple on the same parameter whose disjunction covers the whole domain of
// that parameter: (C AND t1) OR (C AND t2) == C.
func tryMerge(s *pipeline.Space, a, b Conjunction) (Conjunction, bool, error) {
	if len(a) != len(b) || len(a) == 0 {
		return nil, false, nil
	}
	diff := -1
	for i := range a {
		if a[i] != b[i] {
			if diff >= 0 {
				return nil, false, nil
			}
			diff = i
		}
	}
	if diff < 0 {
		// Identical conjuncts: collapse to one.
		return a, true, nil
	}
	t1, t2 := a[diff], b[diff]
	if t1.Param != t2.Param {
		return nil, false, nil
	}
	idx, ok := s.Index(t1.Param)
	if !ok {
		return nil, false, nil
	}
	dom := s.At(idx).Domain
	x1, x2 := allowedIndices(dom, t1), allowedIndices(dom, t2)
	// Each set is constant between consecutive bounds of either set, so
	// checking index 0 and every bound checks every domain index.
	for _, j := range [...]int{0, x1.lo, x1.hi, x2.lo, x2.hi} {
		if j < len(dom) && !x1.has(j) && !x2.has(j) {
			return nil, false, nil
		}
	}
	return a.Without(diff), true, nil
}

// absorb removes conjuncts whose region is contained in another conjunct's
// region.
func absorb(s *pipeline.Space, d DNF) (DNF, error) {
	regions := make([]Region, len(d))
	for i, c := range d {
		r, err := RegionOf(s, c)
		if err != nil {
			return nil, err
		}
		regions[i] = r
	}
	keep := make([]bool, len(d))
	for i := range keep {
		keep[i] = true
	}
	for i := range d {
		if !keep[i] {
			continue
		}
		for j := range d {
			if i == j || !keep[j] {
				continue
			}
			if regions[i].SubsetOf(regions[j]) && !(regions[j].SubsetOf(regions[i]) && j > i) {
				keep[i] = false
				break
			}
		}
	}
	var out DNF
	for i, c := range d {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out, nil
}

// irredundant drops conjuncts implied by the union of the remaining ones,
// preferring to drop longer conjuncts first (the QMC cover step adapted to
// regions).
func irredundant(s *pipeline.Space, d DNF) (DNF, error) {
	kept := d.Canonical()
	for changed := true; changed && len(kept) > 1; {
		changed = false
		order := make([]int, len(kept))
		keys := make([]string, len(kept)) // each conjunct rendered once per sort
		for i := range order {
			order[i] = i
			keys[i] = kept[i].String()
		}
		sort.Slice(order, func(a, b int) bool {
			ca, cb := kept[order[a]], kept[order[b]]
			if len(ca) != len(cb) {
				return len(ca) > len(cb)
			}
			return keys[order[a]] < keys[order[b]]
		})
		for _, i := range order {
			rest := make(DNF, 0, len(kept)-1)
			rest = append(rest, kept[:i]...)
			rest = append(rest, kept[i+1:]...)
			implied, err := Implies(s, kept[i], rest)
			if err != nil {
				return nil, err
			}
			if implied {
				kept = rest
				changed = true
				break
			}
		}
	}
	return kept.Canonical(), nil
}

// binaryEnc maps mentioned binary parameters to bit positions so the exact
// classic QMC can run.
type binaryEnc struct {
	space  *pipeline.Space
	params []string // bit position -> parameter name
	pos    map[string]int
}

// binaryEncoding reports whether every parameter mentioned in d has a
// domain of exactly two values, and if so builds the bit encoding.
func binaryEncoding(s *pipeline.Space, d DNF) (*binaryEnc, bool) {
	enc := &binaryEnc{space: s, pos: make(map[string]int)}
	for _, c := range d {
		for _, t := range c {
			if _, seen := enc.pos[t.Param]; seen {
				continue
			}
			i, ok := s.Index(t.Param)
			if !ok || len(s.At(i).Domain) != 2 {
				return nil, false
			}
			enc.pos[t.Param] = len(enc.params)
			enc.params = append(enc.params, t.Param)
		}
	}
	if len(enc.params) == 0 || len(enc.params) > 16 {
		return nil, false
	}
	return enc, true
}

// minimize runs classic QMC over the mentioned binary parameters: it
// enumerates the 2^k assignments, marks those satisfying d as minterms, and
// converts the resulting prime-implicant cover back into triples.
func (e *binaryEnc) minimize(d DNF) (DNF, error) {
	k := len(e.params)
	var minterms []uint64
	for m := uint64(0); m < 1<<uint(k); m++ {
		if e.satisfies(d, m) {
			minterms = append(minterms, m)
		}
	}
	cover, err := qmc.Minimize(k, minterms, nil)
	if err != nil {
		return nil, err
	}
	var out DNF
	for _, im := range cover {
		var c Conjunction
		for b := 0; b < k; b++ {
			bit := uint64(1) << uint(b)
			if im.Mask&bit == 0 {
				continue
			}
			name := e.params[b]
			i, _ := e.space.Index(name)
			dom := e.space.At(i).Domain
			want := dom[0]
			if im.Bits&bit != 0 {
				want = dom[1]
			}
			c = append(c, Triple{Param: name, Cmp: Eq, Value: want})
		}
		out = append(out, c.Canonical())
	}
	return out.Canonical(), nil
}

// satisfies evaluates d on the assignment encoded by m: bit b set means the
// parameter e.params[b] takes the second domain value.
func (e *binaryEnc) satisfies(d DNF, m uint64) bool {
	valueOf := func(name string) pipeline.Value {
		i, _ := e.space.Index(name)
		dom := e.space.At(i).Domain
		if m&(uint64(1)<<uint(e.pos[name])) != 0 {
			return dom[1]
		}
		return dom[0]
	}
	for _, c := range d {
		all := true
		for _, t := range c {
			if !t.Holds(valueOf(t.Param)) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}
