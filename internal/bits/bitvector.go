// Package bits provides the bit-level substrate of the RAPID engine:
// qualification bit-vectors, row-identifier (RID) lists and the
// ceil(log2 N)-bit packed integer arrays used by the compact hash-join
// kernel (paper §5.4, §6.3).
//
// On the DPU these structures are manipulated with single-cycle BVLD and
// FILT instructions; here the same operations are plain Go, while the DPU
// cost model (internal/dpu) charges cycles for them.
package bits

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-length bit-vector marking qualifying rows of a tile or
// vector. Bit i corresponds to row offset i.
type Vector struct {
	words []uint64
	n     int
}

const wordBits = 64

// NewVector returns a zeroed bit-vector of n bits.
func NewVector(n int) *Vector {
	if n < 0 {
		panic("bits: negative vector length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Over makes v an n-bit vector stored in words, which must hold at least
// VectorSizeBytes(n)/8 of them, and clears it. v shares the words with the
// caller: the tile pool lays its vectors over scratch it recycles, as the DPU
// keeps them in DMEM.
func (v *Vector) Over(words []uint64, n int) {
	if n < 0 {
		panic("bits: negative vector length")
	}
	v.words, v.n = words[:(n+wordBits-1)/wordBits], n
	v.ClearAll()
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the underlying word storage. The tail bits beyond Len are
// always zero.
func (v *Vector) Words() []uint64 { return v.words }

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.boundsCheck(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (v *Vector) Test(i int) bool {
	v.boundsCheck(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (v *Vector) boundsCheck(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, v.n))
	}
}

// SetAll sets every bit.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.maskTail()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// maskTail zeroes the unused bits of the last word so that Count and
// iteration never see ghost rows.
func (v *Vector) maskTail() {
	if rem := v.n % wordBits; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits (qualifying rows).
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or stores the bitwise OR of a and b into v. All three must have the same
// length; v may alias a or b.
func (v *Vector) Or(a, b *Vector) {
	v.checkSameLen(a, b)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

// AndNot stores a AND NOT b into v.
func (v *Vector) AndNot(a, b *Vector) {
	v.checkSameLen(a, b)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
}

// Not stores the complement of a into v.
func (v *Vector) Not(a *Vector) {
	if v.n != a.n {
		panic("bits: length mismatch")
	}
	for i := range v.words {
		v.words[i] = ^a.words[i]
	}
	v.maskTail()
}

func (v *Vector) checkSameLen(a, b *Vector) {
	if v.n != a.n || v.n != b.n {
		panic("bits: length mismatch")
	}
}

// CopyFrom copies a into v. Lengths must match.
func (v *Vector) CopyFrom(a *Vector) {
	if v.n != a.n {
		panic("bits: length mismatch")
	}
	copy(v.words, a.words)
}

// ForEach calls fn for every set bit, in increasing order.
func (v *Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 when
// there is none. This mirrors the BVLD gather scan of Listing 1.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// ToRIDs appends the offsets of all set bits to dst and returns it.
func (v *Vector) ToRIDs(dst []uint32) []uint32 {
	v.ForEach(func(i int) { dst = append(dst, uint32(i)) })
	return dst
}

// FromRIDs clears v and sets the bit for every RID in rids.
func (v *Vector) FromRIDs(rids []uint32) {
	v.ClearAll()
	for _, r := range rids {
		v.Set(int(r))
	}
}

// ChooseRIDs implements the representation decision of paper §5.4: a list of
// 32-bit row offsets (RIDs) wins over a bit-vector when the expected number
// of qualifying rows is below 1/32 of the input (a RID costs 32 bits; a
// bit-vector costs 1 bit per input row).
func ChooseRIDs(expectedHits, inputRows int) bool {
	if inputRows <= 0 {
		return false
	}
	return expectedHits*32 < inputRows
}

// String renders the vector as 0/1 characters, lowest index first. Intended
// for tests and debugging of small vectors.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// VectorSizeBytes returns the DMEM footprint of an n-bit vector without
// allocating it. Used by operator DMEM sizing (op_dmem_size).
func VectorSizeBytes(n int) int { return ((n + wordBits - 1) / wordBits) * 8 }
