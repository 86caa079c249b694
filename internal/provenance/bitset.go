package provenance

import "math/bits"

// bitset is a dense bitmap over record sequence numbers. The store keeps
// one per outcome and one per (parameter, value-code) posting list, so the
// history queries (DisjointSucceeding, AnySucceedingSatisfying,
// CountSatisfying, ...) run as word-wide boolean algebra instead of
// whole-log scans.
type bitset []uint64

// set marks bit i, growing the word slice as needed.
func (b *bitset) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// clone returns an independent copy of b.
func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

// andWith intersects b with o in place. Bits beyond o's length clear.
func (b bitset) andWith(o bitset) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// andNotWith clears from b every bit set in o, in place.
func (b bitset) andNotWith(o bitset) {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		b[i] &^= o[i]
	}
}

// orWith unions o into b, growing b as needed.
func (b *bitset) orWith(o bitset) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for i := range o {
		(*b)[i] |= o[i]
	}
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// andCount returns the number of bits set in both b and o without
// materializing the intersection.
func (b bitset) andCount(o bitset) int {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b[i] & o[i])
	}
	return c
}

// first returns the lowest set bit, or ok=false when b is empty.
func (b bitset) first() (int, bool) {
	for i, w := range b {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// forEach calls f on every set bit in ascending order until f returns
// false.
func (b bitset) forEach(f func(int) bool) {
	for i, w := range b {
		for w != 0 {
			bit := i<<6 + bits.TrailingZeros64(w)
			if !f(bit) {
				return
			}
			w &= w - 1
		}
	}
}
