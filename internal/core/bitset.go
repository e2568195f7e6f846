package core

import "math/bits"

// bitset is a fixed-size bit vector over 64-bit words, the slot-level
// storage of the optimized timing-diagram engine: one bit per time
// slot, so a row over a 2^21-slot horizon costs 256 KiB of dense cells
// in the reference engine but only 32 KiB here — and scanning,
// claiming and releasing slots all proceed a word at a time.
type bitset []uint64

// wordsFor returns the number of 64-bit words covering n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// setRange sets the bits [lo, hi).
func (b bitset) setRange(lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	lmask := ^uint64(0) << uint(lo&63)
	hmask := ^uint64(0) >> uint(63-(hi-1)&63)
	if lw == hw {
		b[lw] |= lmask & hmask
		return
	}
	b[lw] |= lmask
	for w := lw + 1; w < hw; w++ {
		b[w] = ^uint64(0)
	}
	b[hw] |= hmask
}

// orInto ORs b into dst; the slices must have equal length.
func (b bitset) orInto(dst bitset) {
	for i, w := range b {
		dst[i] |= w
	}
}

// lowestN returns x with all but its n lowest set bits cleared.
func lowestN(x uint64, n int) uint64 {
	var out uint64
	for ; n > 0 && x != 0; n-- {
		out |= x & -x
		x &= x - 1
	}
	return out
}

// nthSet returns the 0-indexed position of the n-th (1-indexed) set
// bit of x. x must have at least n set bits.
func nthSet(x uint64, n int) int {
	for ; n > 1; n-- {
		x &= x - 1
	}
	return bits.TrailingZeros64(x)
}

// spanMask returns the bits of word w that fall in [lo, hi).
func spanMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if b := w << 6; lo > b {
		m <<= uint(lo - b)
	}
	if b := w<<6 + 64; hi < b {
		m &= ^uint64(0) >> uint(b-hi)
	}
	return m
}
