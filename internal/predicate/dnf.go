package predicate

import (
	"sort"
	"strings"

	"repro/internal/pipeline"
)

// DNF is a disjunction of conjunctions — the shape of a multi-cause
// explanation ("BugDoc can also discover disjunctive combinations of
// configurations that lead to failure"). The empty DNF is unsatisfiable.
type DNF []Conjunction

// Or builds a DNF from conjunctions.
func Or(cs ...Conjunction) DNF { return DNF(cs) }

// Satisfied reports whether the instance satisfies at least one conjunct.
func (d DNF) Satisfied(in pipeline.Instance) bool {
	for _, c := range d {
		if c.Satisfied(in) {
			return true
		}
	}
	return false
}

// Validate checks every conjunct against the space.
func (d DNF) Validate(s *pipeline.Space) error {
	for _, c := range d {
		if err := c.Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// Canonical returns a copy with each conjunct canonicalized, syntactic
// duplicates removed, and conjuncts sorted deterministically.
func (d DNF) Canonical() DNF {
	// Each conjunct is rendered once, not on both sides of every
	// comparison.
	type keyed struct {
		c   Conjunction
		key string
	}
	ks := make([]keyed, len(d))
	for i, c := range d {
		cc := c.Canonical()
		ks[i] = keyed{cc, cc.String()}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make(DNF, 0, len(d))
	for i, k := range ks {
		if i == 0 || k.key != ks[i-1].key {
			out = append(out, k.c)
		}
	}
	return out
}

// Clone returns a deep copy of the DNF.
func (d DNF) Clone() DNF {
	out := make(DNF, len(d))
	for i, c := range d {
		out[i] = c.Clone()
	}
	return out
}

// String renders the DNF as "(c1) OR (c2) OR ...", or "FALSE" when empty.
func (d DNF) String() string {
	if len(d) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " OR ")
}
