// Package bitset provides the fixed-size uint64 bitset the interned hot
// paths share: the marking's pending-dedup set (internal/state), the
// compliance replayer's in-history set, every node set of a block analysis
// (internal/graph), and the history reducer's active-region union all
// index bits by a dense model.NodeIdx. The one-line accessors inline, so
// the shared type costs nothing over the hand-rolled idiom.
package bitset

import "math/bits"

// Set is a fixed-size bitset. Index bounds are the caller's contract: a
// Set sized with New(n) addresses bits [0, n).
type Set []uint64

// Words returns the number of uint64 words needed for n bits.
func Words(n int) int { return (n + 63) / 64 }

// New returns a zeroed bitset addressing n bits.
func New(n int) Set { return make(Set, Words(n)) }

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (s Set) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s Set) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Union ORs o into s. The sets must be sized for the same bit range.
func (s Set) Union(o Set) {
	for w, bits := range o {
		s[w] |= bits
	}
}

// Reset clears all bits, keeping the allocation.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns the number of bits set in both s and o, which must be
// sized for the same bit range.
func (s Set) AndCount(o Set) int {
	n := 0
	for w, x := range o {
		n += bits.OnesCount64(s[w] & x)
	}
	return n
}

// Next returns the lowest set bit at or above i, or -1 if there is none:
// `for i := s.Next(0); i >= 0; i = s.Next(i + 1)` visits the set bits in
// ascending order.
func (s Set) Next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	if rest := s[w] >> (uint(i) & 63); rest != 0 {
		return i + bits.TrailingZeros64(rest)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}
