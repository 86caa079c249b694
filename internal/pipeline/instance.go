package pipeline

import (
	"fmt"
	"strings"
)

// Instance is a pipeline instance CP_i: an assignment of one value to every
// parameter of a Space (Definition 1). Instances are immutable value types;
// With returns modified copies. The zero Instance is invalid.
//
// An instance is its space's interned code vector (see intern.go) plus a
// precomputed 64-bit hash of it, so identity operations and memoization
// lookups are allocation-free integer work. It keeps no values: Value
// resolves each code through the space's intern table, which readers
// consult without a lock.
type Instance struct {
	space *Space
	codes []uint32
	hash  uint64
}

// instance builds the instance of s over codes, which it takes as its own.
func (s *Space) instance(codes []uint32) Instance {
	return Instance{space: s, codes: codes, hash: hashCodes(codes)}
}

// Assignment is one (parameter, value) pair of an instance.
type Assignment struct {
	Param string
	Value Value
}

// NewInstance builds an instance over s from one value per parameter, in
// space order. Values must match each parameter's kind; they need not be in
// the declared domain (the universe is expandable), but note that domain-
// exact reasoning (region algebra) only sees domain values. The instance
// keeps the values' codes, not the values (see Value).
func NewInstance(s *Space, vals []Value) (Instance, error) {
	if s == nil {
		return Instance{}, fmt.Errorf("pipeline: nil space")
	}
	if len(vals) != s.Len() {
		return Instance{}, fmt.Errorf("pipeline: instance has %d values for %d parameters",
			len(vals), s.Len())
	}
	for i, v := range vals {
		p := s.At(i)
		if v.Kind() != p.Kind {
			return Instance{}, fmt.Errorf("pipeline: parameter %q (%v) cannot hold %v value %v",
				p.Name, p.Kind, v.Kind(), v)
		}
	}
	codes := make([]uint32, len(vals))
	for i, v := range vals {
		codes[i] = s.codeOf(i, v)
	}
	return s.instance(codes), nil
}

// InstanceOfCodes builds the instance of s whose interned code vector is
// codes, one code per parameter in space order, and takes ownership of
// codes: the caller must not modify it afterwards. Every code must already
// be assigned (see NumCodes); the instance is the one NewInstance builds
// from the interned values.
func (s *Space) InstanceOfCodes(codes []uint32) (Instance, error) {
	if len(codes) != s.Len() {
		return Instance{}, fmt.Errorf("pipeline: instance has %d codes for %d parameters",
			len(codes), s.Len())
	}
	for i, c := range codes {
		if int(c) >= s.NumCodes(i) {
			return Instance{}, fmt.Errorf("pipeline: parameter %q has no interned code %d",
				s.At(i).Name, c)
		}
	}
	return s.instance(codes), nil
}

// MustInstance is NewInstance that panics on error.
func MustInstance(s *Space, vals ...Value) Instance {
	in, err := NewInstance(s, vals)
	if err != nil {
		panic(err)
	}
	return in
}

// FromAssignments builds an instance from named assignments; every parameter
// of s must be assigned exactly once.
func FromAssignments(s *Space, as []Assignment) (Instance, error) {
	if s == nil {
		return Instance{}, fmt.Errorf("pipeline: nil space")
	}
	vals := make([]Value, s.Len())
	set := make([]bool, s.Len())
	for _, a := range as {
		i, ok := s.Index(a.Param)
		if !ok {
			return Instance{}, fmt.Errorf("pipeline: unknown parameter %q", a.Param)
		}
		if set[i] {
			return Instance{}, fmt.Errorf("pipeline: parameter %q assigned twice", a.Param)
		}
		set[i] = true
		vals[i] = a.Value
	}
	for i, ok := range set {
		if !ok {
			return Instance{}, fmt.Errorf("pipeline: parameter %q not assigned", s.At(i).Name)
		}
	}
	return NewInstance(s, vals)
}

// IsValid reports whether the instance was properly constructed.
func (in Instance) IsValid() bool { return in.space != nil }

// Space returns the parameter space the instance belongs to.
func (in Instance) Space() *Space { return in.space }

// Len returns the number of parameters.
func (in Instance) Len() int { return len(in.codes) }

// Value returns the value of the i-th parameter (CP_i[p] for p at index i).
// It is the value its code was interned for, the parameter's
// representative of every value that interns alike: -0 and +0 intern
// together, and so do all NaN payloads, so an instance built from -0 reads
// back whichever of the two its parameter saw first.
func (in Instance) Value(i int) Value { return in.space.intern.value(i, in.codes[i]) }

// ByName returns the value of the named parameter.
func (in Instance) ByName(name string) (Value, bool) {
	i, ok := in.space.Index(name)
	if !ok {
		return Value{}, false
	}
	return in.Value(i), true
}

// With returns a copy of the instance with parameter i set to v.
// It panics if v's kind does not match the parameter; callers substitute
// values drawn from other instances of the same space, where kinds agree
// by construction.
func (in Instance) With(i int, v Value) Instance {
	if v.Kind() != in.space.At(i).Kind {
		panic(fmt.Sprintf("pipeline: parameter %q (%v) cannot hold %v value",
			in.space.At(i).Name, in.space.At(i).Kind, v.Kind()))
	}
	codes := make([]uint32, len(in.codes))
	copy(codes, in.codes)
	codes[i] = in.space.codeOf(i, v)
	return in.space.instance(codes)
}

// Hash returns the precomputed 64-bit hash of the instance's interned code
// vector. Equal instances always hash equal; the converse holds only up to
// hash collisions, so maps keyed by Hash must confirm with Equal.
func (in Instance) Hash() uint64 { return in.hash }

// Code returns the interned code of the i-th parameter's value. Codes are
// dense per parameter (see Space.NumCodes) and equal exactly when the
// values are equal.
func (in Instance) Code(i int) uint32 { return in.codes[i] }

// Equal reports whether the two instances assign identical values over the
// same space. It compares precomputed hashes and interned codes, never
// values, so it allocates nothing.
func (in Instance) Equal(other Instance) bool {
	if in.space != other.space || in.hash != other.hash {
		return false
	}
	for i := range in.codes {
		if in.codes[i] != other.codes[i] {
			return false
		}
	}
	return true
}

// DisjointFrom reports whether the instances differ on every parameter
// (Definition 6). Instances over different spaces are never disjoint.
func (in Instance) DisjointFrom(other Instance) bool {
	if in.space != other.space {
		return false
	}
	for i := range in.codes {
		if in.codes[i] == other.codes[i] {
			return false
		}
	}
	return true
}

// DiffCount returns the number of parameters on which the instances differ;
// it is used by the heuristic fallback of the Shortcut algorithm ("take an
// instance that differs in as many parameter-values as possible").
func (in Instance) DiffCount(other Instance) int {
	if in.space != other.space {
		// Codes are only comparable within one space; fall back to values,
		// over the shared parameter prefix only — the spaces may declare
		// different parameter counts, and indexing past the shorter one
		// would panic.
		m := len(in.codes)
		if len(other.codes) < m {
			m = len(other.codes)
		}
		n := 0
		for i := 0; i < m; i++ {
			if in.Value(i) != other.Value(i) {
				n++
			}
		}
		return n
	}
	n := 0
	for i := range in.codes {
		if in.codes[i] != other.codes[i] {
			n++
		}
	}
	return n
}

// Assignments returns the instance as (parameter, value) pairs in space
// order (the paper's Pv_i list).
func (in Instance) Assignments() []Assignment {
	as := make([]Assignment, len(in.codes))
	for i := range as {
		as[i] = Assignment{Param: in.space.At(i).Name, Value: in.Value(i)}
	}
	return as
}

// Key returns a canonical string identity for the instance within its
// space; two instances have equal keys iff Equal reports true. Keys are
// kept for codecs, display, and debugging; memoization and provenance
// lookups use the interned code vector and Hash instead.
func (in Instance) Key() string {
	var b strings.Builder
	for i := range in.codes {
		if i > 0 {
			b.WriteByte(0x1f) // ASCII unit separator: cannot appear in value keys
		}
		b.WriteString(in.Value(i).key())
	}
	return b.String()
}

// String renders the instance as "{p1=v1, p2=v2, ...}".
func (in Instance) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range in.codes {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(in.space.At(i).Name)
		b.WriteByte('=')
		b.WriteString(in.Value(i).String())
	}
	b.WriteByte('}')
	return b.String()
}
