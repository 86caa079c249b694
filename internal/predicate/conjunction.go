package predicate

import (
	"slices"
	"sort"

	"repro/internal/pipeline"
)

// Conjunction is a Boolean conjunction of triples — the shape of a
// hypothetical or definitive root cause (Definition 3). The empty
// conjunction is satisfied by every instance.
type Conjunction []Triple

// And builds a conjunction from triples.
func And(ts ...Triple) Conjunction { return Conjunction(ts) }

// FromAssignments converts a list of (parameter, value) pairs into the
// equality conjunction asserting exactly those pairs — the form produced by
// the Shortcut algorithm, whose root causes are parameter-equality-value sets.
func FromAssignments(as []pipeline.Assignment) Conjunction {
	c := make(Conjunction, len(as))
	for i, a := range as {
		c[i] = Triple{Param: a.Param, Cmp: Eq, Value: a.Value}
	}
	return c
}

// Satisfied reports whether the instance satisfies every triple.
func (c Conjunction) Satisfied(in pipeline.Instance) bool {
	for _, t := range c {
		if !t.Satisfied(in) {
			return false
		}
	}
	return true
}

// Validate checks every triple against the space.
func (c Conjunction) Validate(s *pipeline.Space) error {
	for _, t := range c {
		if err := t.Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// Params returns the distinct parameter names mentioned, sorted.
func (c Conjunction) Params() []string {
	seen := make(map[string]bool, len(c))
	var out []string
	for _, t := range c {
		if !seen[t.Param] {
			seen[t.Param] = true
			out = append(out, t.Param)
		}
	}
	sort.Strings(out)
	return out
}

// Canonical returns a sorted, duplicate-free copy of the conjunction.
// Canonical forms make syntactic comparison deterministic; use Equivalent
// for semantic comparison.
func (c Conjunction) Canonical() Conjunction {
	out := make(Conjunction, len(c))
	copy(out, c)
	slices.SortFunc(out, compareTriples)
	dedup := out[:0]
	for i, t := range out {
		if i == 0 || t != out[i-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}

// EqualSyntactic reports whether the canonical forms are identical.
func (c Conjunction) EqualSyntactic(o Conjunction) bool {
	a, b := c.Canonical(), o.Canonical()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Without returns a copy of the conjunction with the i-th triple removed.
func (c Conjunction) Without(i int) Conjunction {
	out := make(Conjunction, 0, len(c)-1)
	out = append(out, c[:i]...)
	out = append(out, c[i+1:]...)
	return out
}

// Clone returns a copy that shares no storage with c.
func (c Conjunction) Clone() Conjunction {
	out := make(Conjunction, len(c))
	copy(out, c)
	return out
}

// String renders the conjunction as "t1 AND t2 AND ...", or "TRUE" when
// empty.
func (c Conjunction) String() string {
	if len(c) == 0 {
		return "TRUE"
	}
	var buf [256]byte
	b := buf[:0]
	for i, t := range c {
		if i > 0 {
			b = append(b, " AND "...)
		}
		b = t.appendTo(b)
	}
	return string(b)
}
