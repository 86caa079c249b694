// Package predicate implements the explanation language of BugDoc:
// parameter-comparator-value triples, conjunctions of triples (hypothetical
// and definitive root causes, Definitions 3-5), and disjunctions of
// conjunctions (DNF) for multi-cause explanations.
//
// Beyond satisfaction tests, the package provides an exact region algebra
// over the finite parameter domains of a pipeline.Space. Every conjunction
// denotes a region (a per-parameter subset of each domain); regions make
// satisfiability, implication, equivalence, definitiveness and minimality
// decidable, which the debugging algorithms and the evaluation metrics both
// rely on. A region is stored as packed bit rows, one per parameter, so
// its queries are word operations; a triple's row is found by binary
// search over the parameter's domain, which the space keeps sorted (see
// Region).
package predicate

import (
	"fmt"
	"strings"

	"repro/internal/pipeline"
)

// Comparator is the comparison operator of a triple. The paper's comparator
// set is C = {=, ≤, >, ≠}; categorical parameters admit only Eq and Neq.
type Comparator uint8

const (
	// Eq tests parameter == value.
	Eq Comparator = iota + 1
	// Neq tests parameter != value.
	Neq
	// Le tests parameter <= value (ordinal parameters only).
	Le
	// Gt tests parameter > value (ordinal parameters only).
	Gt
)

// String renders the comparator in ASCII ("=", "!=", "<=", ">").
func (c Comparator) String() string {
	switch c {
	case Eq:
		return "="
	case Neq:
		return "!="
	case Le:
		return "<="
	case Gt:
		return ">"
	default:
		return fmt.Sprintf("Comparator(%d)", uint8(c))
	}
}

// ParseComparator is the inverse of String.
func ParseComparator(s string) (Comparator, error) {
	switch s {
	case "=":
		return Eq, nil
	case "!=":
		return Neq, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	default:
		return 0, fmt.Errorf("predicate: unknown comparator %q", s)
	}
}

// Negate returns the comparator selecting exactly the complementary values:
// Eq<->Neq and Le<->Gt. Negation is its own inverse.
func (c Comparator) Negate() Comparator {
	switch c {
	case Eq:
		return Neq
	case Neq:
		return Eq
	case Le:
		return Gt
	case Gt:
		return Le
	default:
		panic("predicate: negate of invalid comparator")
	}
}

// Triple is one parameter-comparator-value condition, e.g. "A > 5".
type Triple struct {
	Param string
	Cmp   Comparator
	Value pipeline.Value
}

// T is shorthand for constructing a Triple.
func T(param string, cmp Comparator, v pipeline.Value) Triple {
	return Triple{Param: param, Cmp: cmp, Value: v}
}

// Validate checks the triple against a space: the parameter must exist, the
// value kind must match, and ordering comparators require an ordinal
// parameter.
func (t Triple) Validate(s *pipeline.Space) error {
	i, ok := s.Index(t.Param)
	if !ok {
		return fmt.Errorf("predicate: unknown parameter %q", t.Param)
	}
	p := s.At(i)
	if t.Value.Kind() != p.Kind {
		return fmt.Errorf("predicate: parameter %q (%v) compared with %v value %v",
			t.Param, p.Kind, t.Value.Kind(), t.Value)
	}
	switch t.Cmp {
	case Eq, Neq:
	case Le, Gt:
		if p.Kind != pipeline.Ordinal {
			return fmt.Errorf("predicate: comparator %v requires ordinal parameter, %q is %v",
				t.Cmp, t.Param, p.Kind)
		}
	default:
		return fmt.Errorf("predicate: invalid comparator in %v", t)
	}
	return nil
}

// Holds reports whether a single value satisfies the triple's comparison.
// The value must have the same kind as the triple's value.
func (t Triple) Holds(v pipeline.Value) bool {
	switch t.Cmp {
	case Eq:
		return v == t.Value
	case Neq:
		return v != t.Value
	case Le:
		return v.Num() <= t.Value.Num()
	case Gt:
		return v.Num() > t.Value.Num()
	default:
		panic("predicate: Holds on invalid comparator")
	}
}

// Satisfied reports whether instance in satisfies the triple. Unknown
// parameters do not satisfy anything.
func (t Triple) Satisfied(in pipeline.Instance) bool {
	v, ok := in.ByName(t.Param)
	if !ok {
		return false
	}
	return t.Holds(v)
}

// Negated returns the triple selecting the complementary set of values.
func (t Triple) Negated() Triple {
	return Triple{Param: t.Param, Cmp: t.Cmp.Negate(), Value: t.Value}
}

// Less orders triples canonically: by parameter, then comparator, then value.
func (t Triple) Less(o Triple) bool { return compareTriples(t, o) < 0 }

// compareTriples is the canonical triple order as a three-way comparison:
// negative exactly when a.Less(b), positive exactly when b.Less(a), zero
// otherwise.
func compareTriples(a, b Triple) int {
	if c := strings.Compare(a.Param, b.Param); c != 0 {
		return c
	}
	switch {
	case a.Cmp != b.Cmp:
		return int(a.Cmp) - int(b.Cmp)
	case a.Value.Less(b.Value):
		return -1
	case b.Value.Less(a.Value):
		return 1
	}
	return 0
}

// String renders the triple as "param cmp value".
func (t Triple) String() string {
	var buf [64]byte
	return string(t.appendTo(buf[:0]))
}

// appendTo appends the String form of t to dst and returns the extended
// slice.
func (t Triple) appendTo(dst []byte) []byte {
	dst = append(dst, t.Param...)
	dst = append(dst, ' ')
	dst = append(dst, t.Cmp.String()...)
	dst = append(dst, ' ')
	return t.Value.AppendString(dst)
}
