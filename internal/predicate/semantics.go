package predicate

import (
	"fmt"

	"repro/internal/pipeline"
)

// Satisfiable reports whether some domain instance satisfies the
// conjunction.
func Satisfiable(s *pipeline.Space, c Conjunction) (bool, error) {
	r, err := RegionOf(s, c)
	if err != nil {
		return false, err
	}
	return !r.Empty(), nil
}

// Implies reports whether every domain instance satisfying c also satisfies
// d, i.e. region(c) ⊆ ∪_j region(d_j). The union is not a Cartesian
// product, so coverage is decided by checking that c ∧ ¬d is unsatisfiable,
// expanding ¬d one conjunct at a time: for each conjunct D, ¬D is the
// disjunction of its negated triples, so we branch over them. The branching
// factor is ∏_j |d_j|, which is small for the explanation sizes BugDoc
// produces.
func Implies(s *pipeline.Space, c Conjunction, d DNF) (bool, error) {
	base, err := RegionOf(s, c)
	if err != nil {
		return false, err
	}
	if err := d.Validate(s); err != nil {
		return false, err
	}
	return coveredBy(base, d, make([]Region, len(d))), nil
}

// coveredBy reports whether base ⊆ ∪_j region(d_j). regs[j] caches
// region(d_j) for the whole Implies call: a zero Region is not computed
// yet, and each is computed on first use, so a conjunct that covers base
// outright spares the regions of the ones after it.
func coveredBy(base Region, d DNF, regs []Region) bool {
	if base.Empty() {
		return true
	}
	if len(d) == 0 {
		return false
	}
	// Fast path: a single conjunct that covers base outright.
	for j, c := range d {
		if regs[j].space == nil {
			// Implies validated d, so RegionOf cannot fail here.
			regs[j], _ = RegionOf(base.Space(), c)
		}
		if base.SubsetOf(regs[j]) {
			return true
		}
	}
	// Branch over the negation of the first conjunct.
	first, rest := d[0], d[1:]
	if len(first) == 0 {
		// Empty conjunct is TRUE: covers everything.
		return true
	}
	for _, t := range first {
		if !coveredBy(base.restrictNegated(t), rest, regs[1:]) {
			return false
		}
	}
	return true
}

// ImpliesDNF reports whether d1 implies d2 over the domains: every conjunct
// of d1 must be covered by d2.
func ImpliesDNF(s *pipeline.Space, d1, d2 DNF) (bool, error) {
	for _, c := range d1 {
		ok, err := Implies(s, c, d2)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Equivalent reports whether two conjunctions denote the same region.
func Equivalent(s *pipeline.Space, c1, c2 Conjunction) (bool, error) {
	r1, err := RegionOf(s, c1)
	if err != nil {
		return false, err
	}
	r2, err := RegionOf(s, c2)
	if err != nil {
		return false, err
	}
	return r1.Equal(r2), nil
}

// EquivalentDNF reports whether two DNFs denote the same instance set.
func EquivalentDNF(s *pipeline.Space, d1, d2 DNF) (bool, error) {
	fwd, err := ImpliesDNF(s, d1, d2)
	if err != nil || !fwd {
		return false, err
	}
	return ImpliesDNF(s, d2, d1)
}

// Definitive reports whether c is a definitive root cause of failure with
// respect to the ground-truth failure condition truth (Definition 4): c is
// satisfiable, and every domain instance satisfying c fails.
func Definitive(s *pipeline.Space, c Conjunction, truth DNF) (bool, error) {
	sat, err := Satisfiable(s, c)
	if err != nil {
		return false, err
	}
	if !sat {
		return false, nil
	}
	return Implies(s, c, truth)
}

// Minimal reports whether c is a minimal definitive root cause with respect
// to truth (Definition 5): definitive, and no proper subset is definitive.
// Because adding triples only shrinks a region, any definitive proper
// subset would make some (|c|-1)-subset definitive too, so checking the
// one-triple-removed subsets suffices.
func Minimal(s *pipeline.Space, c Conjunction, truth DNF) (bool, error) {
	c = c.Canonical()
	def, err := Definitive(s, c, truth)
	if err != nil || !def {
		return false, err
	}
	for i := range c {
		sub := c.Without(i)
		subDef, err := Definitive(s, sub, truth)
		if err != nil {
			return false, err
		}
		if subDef {
			return false, nil
		}
	}
	return true, nil
}

// Minimize greedily removes triples from c while the remainder stays
// definitive with respect to truth, returning one minimal definitive subset.
// It fails if c itself is not definitive.
func Minimize(s *pipeline.Space, c Conjunction, truth DNF) (Conjunction, error) {
	c = c.Canonical()
	def, err := Definitive(s, c, truth)
	if err != nil {
		return nil, err
	}
	if !def {
		return nil, fmt.Errorf("predicate: %v is not definitive for %v", c, truth)
	}
	for i := 0; i < len(c); {
		sub := c.Without(i)
		subDef, err := Definitive(s, sub, truth)
		if err != nil {
			return nil, err
		}
		if subDef {
			c = sub
			i = 0
			continue
		}
		i++
	}
	return c, nil
}

// MinimalSubsets enumerates every minimal definitive subset of c with
// respect to truth, by increasing size. It is exponential in |c| and meant
// for ground-truth computation on the small conjunctions the benchmark
// plants (|c| ≲ 8).
func MinimalSubsets(s *pipeline.Space, c Conjunction, truth DNF) ([]Conjunction, error) {
	c = c.Canonical()
	n := len(c)
	if n > 20 {
		return nil, fmt.Errorf("predicate: MinimalSubsets on %d triples is infeasible", n)
	}
	var minimal []Conjunction
	var minimalRegions []Region
	for mask := uint32(0); mask < 1<<uint(n); mask++ {
		var sub Conjunction
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, c[i])
			}
		}
		// Skip supersets of an already-found minimal cause: sub's region is a
		// subset of the minimal cause's region, and sub includes its triples.
		covered := false
		for _, m := range minimal {
			if containsAll(sub, m) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		def, err := Definitive(s, sub, truth)
		if err != nil {
			return nil, err
		}
		if def {
			r, err := RegionOf(s, sub)
			if err != nil {
				return nil, err
			}
			dup := false
			for _, mr := range minimalRegions {
				if mr.Equal(r) {
					dup = true
					break
				}
			}
			if !dup {
				minimal = append(minimal, sub)
				minimalRegions = append(minimalRegions, r)
			}
		}
	}
	return minimal, nil
}

// containsAll reports whether super contains every triple of sub
// (syntactically).
func containsAll(super, sub Conjunction) bool {
	for _, t := range sub {
		found := false
		for _, u := range super {
			if t == u {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
