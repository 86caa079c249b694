package provenance

import "math/bits"

// bitset is a dense bitmap over record sequence numbers. The store keeps
// one per outcome and one per (parameter, value-code) posting list, so the
// history queries (FirstFailing, MutuallyDisjointSucceeding,
// AnySucceedingSatisfying, CountSatisfying, ...) run as word-wide boolean
// algebra instead of whole-log scans, and ascending bit order is
// execution order.
type bitset []uint64

// grow returns b extended with zero words to at least n words, in at most
// one allocation, at least doubling b's capacity when it makes one. The
// words past a bitset's length are zero: every bitset is allocated by
// make, and nothing writes past its length.
func (b bitset) grow(n int) bitset {
	if len(b) >= n {
		return b
	}
	if n <= cap(b) {
		return b[:n]
	}
	nb := make(bitset, n, max(n, 2*cap(b)))
	copy(nb, b)
	return nb
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
	*b = b.grow(len(o))
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
