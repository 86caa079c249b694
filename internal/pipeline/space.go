package pipeline

import (
	"fmt"
	"math"
	"slices"
)

// Parameter describes one manipulable parameter of a pipeline: its name,
// the kind of values it takes, and its known finite domain (the paper's
// "parameter-value universe" U_p, possibly expanded with declared values).
type Parameter struct {
	Name   string
	Kind   Kind
	Domain []Value
}

// Space is an ordered set of parameters with unique names. It corresponds
// to the universe U = {(p, U_p)} of Definition 1. The order of parameters
// is fixed at construction and gives instances a canonical layout.
//
// A Space is immutable after construction except through AddToDomain, which
// implements the paper's "the initial parameter-value universe can be
// expanded". Spaces are safe for concurrent reads; domain expansion must
// not race with readers.
type Space struct {
	params []Parameter
	index  map[string]int
	intern *internTable
	// domainCodes[i][j] is the code of params[i].Domain[j].
	domainCodes [][]uint32
}

// NewSpace validates and assembles a parameter space. It requires at least
// one parameter, unique non-empty names, at least one domain value per
// parameter, and domain values matching the declared kind. Domains are
// deduplicated and sorted (numerically for ordinals, lexicographically for
// categoricals) so that equal spaces have identical layouts.
func NewSpace(params ...Parameter) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("pipeline: space needs at least one parameter")
	}
	s := &Space{
		params: make([]Parameter, len(params)),
		index:  make(map[string]int, len(params)),
	}
	for i, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("pipeline: parameter %d has empty name", i)
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("pipeline: duplicate parameter name %q", p.Name)
		}
		if p.Kind != Ordinal && p.Kind != Categorical {
			return nil, fmt.Errorf("pipeline: parameter %q has invalid kind %v", p.Name, p.Kind)
		}
		if len(p.Domain) == 0 {
			return nil, fmt.Errorf("pipeline: parameter %q has empty domain", p.Name)
		}
		dom := make([]Value, 0, len(p.Domain))
		seen := make(map[Value]bool, len(p.Domain))
		for _, v := range p.Domain {
			if v.Kind() != p.Kind {
				return nil, fmt.Errorf("pipeline: parameter %q (%v) has %v domain value %v",
					p.Name, p.Kind, v.Kind(), v)
			}
			if v.Kind() == Ordinal && (math.IsNaN(v.Num()) || math.IsInf(v.Num(), 0)) {
				return nil, fmt.Errorf("pipeline: parameter %q has non-finite domain value", p.Name)
			}
			if !seen[v] {
				seen[v] = true
				dom = append(dom, v)
			}
		}
		slices.SortFunc(dom, compareValues)
		s.params[i] = Parameter{Name: p.Name, Kind: p.Kind, Domain: slices.Clip(dom)}
		s.index[p.Name] = i
	}
	// Domain values get the low codes in sorted domain order,
	// deterministically across runs.
	s.intern = newInternTable(s.params)
	n := 0
	for _, p := range s.params {
		n += len(p.Domain)
	}
	flat := make([]uint32, n)
	s.domainCodes = make([][]uint32, len(s.params))
	for i, p := range s.params {
		d := len(p.Domain)
		s.domainCodes[i], flat = flat[:d:d], flat[d:]
		for j := range s.domainCodes[i] {
			s.domainCodes[i][j] = uint32(j)
		}
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error; intended for tests, examples,
// and statically-known spaces.
func MustSpace(params ...Parameter) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of parameters |P|.
func (s *Space) Len() int { return len(s.params) }

// At returns the i-th parameter. The returned Parameter shares its Domain
// slice with the space; callers must not mutate it.
func (s *Space) At(i int) Parameter { return s.params[i] }

// Names returns the parameter names in space order.
func (s *Space) Names() []string {
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.Name
	}
	return names
}

// Index returns the position of the named parameter and whether it exists.
func (s *Space) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Domain returns the domain of the named parameter, or nil if unknown.
// The returned slice is shared; callers must not mutate it.
func (s *Space) Domain(name string) []Value {
	i, ok := s.index[name]
	if !ok {
		return nil
	}
	return s.params[i].Domain
}

// DomainCodes returns the interned codes of parameter i's domain values,
// in domain order: DomainCodes(i)[j] is the code of Domain[j]. A fresh
// space's domain codes are 0..len(Domain)-1, but after AddToDomain a
// domain index no longer equals its code. The returned slice is shared;
// callers must not mutate it.
func (s *Space) DomainCodes(i int) []uint32 { return s.domainCodes[i] }

// DomainIndex returns the position of v inside parameter i's domain,
// or -1 if v is not a domain value.
func (s *Space) DomainIndex(i int, v Value) int {
	for j, d := range s.params[i].Domain {
		if d == v {
			return j
		}
	}
	return -1
}

// AddToDomain expands the universe of the named parameter with v,
// implementing Definition 1's expandable universe. Adding an existing value
// is a no-op. It fails if the parameter is unknown, v has the wrong kind,
// or v is NaN: NaN equals no value, so it could never be found in the
// domain again, and it has no place in the sorted order the region algebra
// (internal/predicate) relies on.
//
// The domain grows into a new slice, sorted, and is never sorted in place:
// a fresh space's domain slice is its parameter's published code→value
// table (see newInternTable).
func (s *Space) AddToDomain(name string, v Value) error {
	i, ok := s.index[name]
	if !ok {
		return fmt.Errorf("pipeline: unknown parameter %q", name)
	}
	p := &s.params[i]
	if v.Kind() != p.Kind {
		return fmt.Errorf("pipeline: parameter %q (%v) cannot hold %v value %v",
			name, p.Kind, v.Kind(), v)
	}
	if v.Kind() == Ordinal && math.IsNaN(v.Num()) {
		return fmt.Errorf("pipeline: parameter %q cannot add NaN to its domain", name)
	}
	if s.DomainIndex(i, v) >= 0 {
		return nil
	}
	p.Domain = append(slices.Clip(p.Domain), v)
	slices.SortFunc(p.Domain, compareValues)
	codes := make([]uint32, len(p.Domain))
	for j, d := range p.Domain {
		codes[j] = s.intern.code(i, d)
	}
	s.domainCodes[i] = codes
	return nil
}

// NumInstances returns the size of the full Cartesian space of instances
// and whether that size fit in a uint64 (exact=false means overflow).
func (s *Space) NumInstances() (n uint64, exact bool) {
	n = 1
	for _, p := range s.params {
		d := uint64(len(p.Domain))
		if d != 0 && n > math.MaxUint64/d {
			return math.MaxUint64, false
		}
		n *= d
	}
	return n, true
}

// String summarizes the space as "name(kind:|domain|), ...".
func (s *Space) String() string {
	out := ""
	for i, p := range s.params {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s(%v:%d)", p.Name, p.Kind, len(p.Domain))
	}
	return out
}
