// Package pipeline defines the data model for computational pipelines:
// typed parameter values, parameter spaces, and pipeline instances
// (assignments of one value per parameter), following the formalism of
// Section 3 of the BugDoc paper (Lourenço, Freire, Shasha; SIGMOD 2020).
//
// A pipeline is treated as a black box: the only observable structure is
// its parameter space and, for each executed instance, a binary outcome
// (Succeed or Fail) produced by an evaluation procedure.
//
// Values are interned per Space: each observed value gets a dense uint32
// code per parameter, and an instance is its code vector plus a
// precomputed hash (see intern.go), so instance identity operations are
// allocation-free integer comparisons and columnar consumers (the
// provenance index, decision-tree split counting) can use dense arrays
// keyed by code.
package pipeline

import (
	"fmt"
	"strconv"
)

// Kind discriminates the two value types the paper's model supports:
// ordinal values (numbers, with a total order) and categorical values
// (opaque labels, equality only).
type Kind uint8

const (
	// KindInvalid is the zero Kind; it is never valid in a parameter.
	KindInvalid Kind = iota
	// Ordinal values are numeric and totally ordered.
	Ordinal
	// Categorical values are opaque labels supporting only (in)equality.
	Categorical
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Ordinal:
		return "ordinal"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single parameter value: either an ordinal (float64) or a
// categorical (string). Values are comparable with ==; two values are equal
// exactly when they have the same kind and the same payload. The zero Value
// is invalid and reports Kind() == KindInvalid.
type Value struct {
	kind Kind
	num  float64
	str  string
}

// Ord returns an ordinal value holding x.
func Ord(x float64) Value { return Value{kind: Ordinal, num: x} }

// Cat returns a categorical value holding label s.
func Cat(s string) Value { return Value{kind: Categorical, str: s} }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v was built by Ord or Cat.
func (v Value) IsValid() bool { return v.kind == Ordinal || v.kind == Categorical }

// Num returns the numeric payload. It panics unless v is ordinal, since
// silently returning 0 would corrupt comparisons.
func (v Value) Num() float64 {
	if v.kind != Ordinal {
		panic("pipeline: Num called on non-ordinal value " + v.String())
	}
	return v.num
}

// Str returns the label payload. It panics unless v is categorical.
func (v Value) Str() string {
	if v.kind != Categorical {
		panic("pipeline: Str called on non-categorical value " + v.String())
	}
	return v.str
}

// Less reports whether v orders strictly before w. Ordinal values compare
// numerically. Categorical values compare lexicographically; this gives
// deterministic orderings (for canonical forms) but carries no semantic
// meaning, and predicates never use it for categoricals.
// Values of different kinds order Ordinal < Categorical.
func (v Value) Less(w Value) bool {
	if v.kind != w.kind {
		return v.kind < w.kind
	}
	if v.kind == Ordinal {
		return v.num < w.num
	}
	return v.str < w.str
}

// String renders the value for humans: ordinals in shortest float form,
// categoricals quoted.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends the String form of v to dst and returns the
// extended slice.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case Ordinal:
		return strconv.AppendFloat(dst, v.num, 'g', -1, 64)
	case Categorical:
		return strconv.AppendQuote(dst, v.str)
	default:
		return append(dst, "<invalid>"...)
	}
}

// key renders the value canonically for instance keys. The forms for the
// two kinds cannot collide because categorical keys always start with '"'.
func (v Value) key() string {
	if v.kind == Ordinal {
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	}
	return strconv.Quote(v.str)
}
