package pipeline

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Value interning. Every Space carries a table assigning each observed
// Value a dense uint32 code per parameter. The table keeps one map per
// parameter, by the parameter's kind: ordinals keyed by their canonical
// bits, categoricals by their label. An instance is its code vector and
// a 64-bit FNV-1a hash of it computed at construction, which makes
// identity operations (Equal, DisjointFrom, DiffCount, map lookups in the
// provenance store and the executor) integer comparisons with zero
// allocations; the string Key() survives only for codecs and display.
//
// Codes are runtime artifacts of one Space: they are assigned in first-
// intern order (domain values first, in sorted domain order) and are only
// comparable between values of the same parameter of the same Space. The
// durable provenance log may persist code vectors, but only alongside a
// dictionary of (parameter, code, value) assignments replayed in order
// through Space.Intern, which reproduces the exact assignment sequence (see
// internal/provlog).
//
// Because first-intern order is not value order once an out-of-domain
// value arrives, the table also owns each parameter's value order: a
// code→rank table (rank = position among the parameter's values sorted by
// value, NaN after every number), built under the intern lock on first
// request and dropped whenever the parameter gains a code.
//
// Each parameter's code→value table and rank table are published together
// as an immutable column, replaced (never written) when the parameter
// gains a code or its ranks are built. Instance.Value and Space.ValueOrder
// read the current column without any lock, so split searches
// (internal/dtree, internal/forest) order observed codes by integer rank
// and read values without a lock or a Value comparison per step.

// canonicalNaN is the quiet NaN all NaN payloads intern as.
var canonicalNaN = math.Float64bits(math.NaN())

// ordinalBits is the key an ordinal is interned by: its bit pattern, with
// -0 collapsed into +0 (so interning agrees with ==) and every NaN
// collapsed into one pattern (so an instance carrying NaN still equals
// itself, matching the canonical Key() rendering).
func ordinalBits(n float64) uint64 {
	switch {
	case n != n:
		return canonicalNaN
	case n == 0:
		return 0
	}
	return math.Float64bits(n)
}

// internTable is the per-space value table. Interning happens on every
// instance construction, which may run concurrently (parallel oracle
// dispatch), so the table is internally synchronized: lookups of
// already-interned values take only a read lock, and reads of interned
// values take none (see column).
//
// Each parameter keeps one map per value kind, allocated on the first
// value of that kind: ordinals keyed by ordinalBits, categoricals by
// label. Every constructor checks kinds, so a parameter holds only the map
// of its own kind. A value of the other kind can still arrive through
// Space.Intern from a corrupt log; it lands in the other map with a code
// of its own, never one of the parameter's kind.
type internTable struct {
	mu   sync.RWMutex
	nums []map[uint64]uint32      // per parameter: ordinal bits -> dense code
	strs []map[string]uint32      // per parameter: categorical label -> dense code
	cols []atomic.Pointer[column] // per parameter: the published column
}

// column is one parameter's published code tables. A published column is
// never written, so readers load it without a lock and may keep it. The
// write lock holder publishes a successor: one whose vals extend the old
// (an append writes past every published length, never into it) with no
// ranks, or one that adds the ranks of the same vals.
type column struct {
	vals []Value  // code -> value
	rank []uint32 // code -> rank in value order; nil until first requested
}

// newInternTable returns the table of a space with the given parameters,
// whose domains are sorted and distinct. It seeds each parameter in one
// step: its domain values get codes 0..len(Domain)-1 in domain order, in
// one map sized to the domain, and its one published column's value table
// is the domain slice itself, capped at its length. AddToDomain therefore
// never sorts a domain in place.
func newInternTable(params []Parameter) *internTable {
	n := len(params)
	t := &internTable{
		nums: make([]map[uint64]uint32, n),
		strs: make([]map[string]uint32, n),
		cols: make([]atomic.Pointer[column], n),
	}
	// Nothing shares the table yet; the lock keeps the rule that the maps
	// are written only under it.
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, p := range params {
		switch p.Kind {
		case Ordinal:
			t.nums[i] = make(map[uint64]uint32, len(p.Domain))
			for c, v := range p.Domain {
				t.nums[i][ordinalBits(v.num)] = uint32(c)
			}
		case Categorical:
			t.strs[i] = make(map[string]uint32, len(p.Domain))
			for c, v := range p.Domain {
				t.strs[i][v.str] = uint32(c)
			}
		}
		t.cols[i].Store(&column{vals: slices.Clip(p.Domain)})
	}
	return t
}

// lookup returns v's code for parameter i, if it has one. The caller holds
// the lock.
func (t *internTable) lookup(i int, v Value) (uint32, bool) {
	var c uint32
	var ok bool
	switch v.kind {
	case Ordinal:
		c, ok = t.nums[i][ordinalBits(v.num)]
	case Categorical:
		c, ok = t.strs[i][v.str]
	}
	return c, ok
}

// code returns the dense code for value v of parameter i, interning it on
// first sight. It panics on an invalid Value: every constructor of
// instances and spaces rejects one first.
func (t *internTable) code(i int, v Value) uint32 {
	t.mu.RLock()
	c, ok := t.lookup(i, v)
	t.mu.RUnlock()
	if ok {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.lookup(i, v); ok {
		return c
	}
	vals := t.cols[i].Load().vals
	c = uint32(len(vals))
	switch v.kind {
	case Ordinal:
		if t.nums[i] == nil {
			t.nums[i] = make(map[uint64]uint32)
		}
		t.nums[i][ordinalBits(v.num)] = c
	case Categorical:
		if t.strs[i] == nil {
			t.strs[i] = make(map[string]uint32)
		}
		t.strs[i][v.str] = c
	default:
		panic("pipeline: intern of an invalid Value")
	}
	t.cols[i].Store(&column{vals: append(vals, v)})
	return c
}

// order returns snapshots of parameter i's code→value and code→rank
// tables, publishing the rank table under the write lock when the current
// column lacks it. The value snapshot is capped at its length, so a
// caller's append cannot write into the table's spare capacity.
func (t *internTable) order(i int) ([]Value, []uint32) {
	col := t.cols[i].Load()
	if col.rank == nil {
		t.mu.Lock()
		col = t.cols[i].Load()
		if col.rank == nil {
			col = &column{vals: col.vals, rank: rankValues(col.vals)}
			t.cols[i].Store(col)
		}
		t.mu.Unlock()
	}
	return col.vals[:len(col.vals):len(col.vals)], col.rank
}

// rankValues returns rank[c] = position of vals[c] among vals sorted by
// compareValues. Interned values of one parameter are pairwise distinct
// under that order, so the ranks are a permutation of 0..len(vals)-1.
func rankValues(vals []Value) []uint32 {
	byValue := make([]uint32, len(vals))
	for c := range byValue {
		byValue[c] = uint32(c)
	}
	slices.SortFunc(byValue, func(a, b uint32) int { return compareValues(vals[a], vals[b]) })
	rank := make([]uint32, len(vals))
	for r, c := range byValue {
		rank[c] = uint32(r)
	}
	return rank
}

// compareValues orders values as Value.Less does, except that NaN sorts
// after every number: Less orders NaN neither before nor after anything,
// so it is no strict weak order once NaN has been interned.
func compareValues(a, b Value) int {
	if a.kind == Ordinal && b.kind == Ordinal {
		switch aNaN, bNaN := math.IsNaN(a.num), math.IsNaN(b.num); {
		case aNaN && bNaN:
			return 0
		case aNaN:
			return 1
		case bNaN:
			return -1
		}
	}
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// size returns the number of codes assigned so far for parameter i.
func (t *internTable) size(i int) int { return len(t.cols[i].Load().vals) }

// value returns the Value interned as code c of parameter i.
func (t *internTable) value(i int, c uint32) Value { return t.cols[i].Load().vals[c] }

// NumCodes returns how many distinct values of parameter i have been
// interned so far (domain values plus any observed out-of-domain values).
// Codes for parameter i are exactly 0..NumCodes(i)-1, so columnar consumers
// (the provenance index, the decision-tree split counter) can size dense
// arrays by it. The count only grows.
func (s *Space) NumCodes(i int) int { return s.intern.size(i) }

// InternedValue returns the Value that was assigned code c for parameter i.
// It panics if c was never assigned.
func (s *Space) InternedValue(i int, c uint32) Value { return s.intern.value(i, c) }

// ValueOrder returns immutable snapshots of parameter i's interned values
// and their order: vals[c] is the Value assigned code c (InternedValue),
// and rank[c] is c's position when the parameter's codes are sorted by
// value — numerically for ordinals with NaN after every number,
// lexicographically for categoricals, the order Value.Less gives wherever
// Less is a strict order. Both slices cover the codes assigned when it was
// called and must not be modified. A code interned later is missing from
// them, and it may shift the ranks of a later snapshot, but never the
// relative order of two codes.
func (s *Space) ValueOrder(i int) (vals []Value, rank []uint32) { return s.intern.order(i) }

// codeOf interns v for parameter i and returns its dense code.
func (s *Space) codeOf(i int, v Value) uint32 { return s.intern.code(i, v) }

// FNV-1a over the little-endian bytes of the code vector.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashCodes returns the hash an Instance over this code vector carries
// (Instance.Hash): FNV-1a over the little-endian bytes of the codes. Bulk
// loaders (WAL replay) use it to compute instance hashes straight from
// decoded code rows, before any Instance exists.
func HashCodes(codes []uint32) uint64 { return hashCodes(codes) }

func hashCodes(codes []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range codes {
		h = (h ^ uint64(c&0xff)) * fnvPrime64
		h = (h ^ uint64((c>>8)&0xff)) * fnvPrime64
		h = (h ^ uint64((c>>16)&0xff)) * fnvPrime64
		h = (h ^ uint64(c>>24)) * fnvPrime64
	}
	return h
}
