package bits

import (
	"fmt"
	"math/bits"
)

// PackedArray is a fixed-capacity array of unsigned integers stored with a
// fixed bit width per element. The RAPID hash-join kernel (paper §6.3) keeps
// its hash-buckets and link arrays at exactly ceil(log2 N) bits per element
// so that N-row partitions fit in the 32 KiB DMEM; this type is that storage.
//
// Width 0 is permitted for the degenerate single-element case (log2 1 = 0):
// every element then reads back as 0.
type PackedArray struct {
	words []uint64
	width uint // bits per element, 0..64
	n     int  // number of elements
}

// NewPackedArray returns a zeroed packed array of n elements of the given
// bit width.
func NewPackedArray(n int, width uint) *PackedArray {
	if n < 0 {
		panic("bits: negative packed array length")
	}
	if width > 64 {
		panic("bits: packed array width > 64")
	}
	totalBits := uint64(n) * uint64(width)
	return &PackedArray{
		words: make([]uint64, (totalBits+wordBits-1)/wordBits),
		width: width,
		n:     n,
	}
}

// WidthFor returns the minimal element width able to hold values 0..n-1,
// i.e. ceil(log2 n). WidthFor(0) and WidthFor(1) return 0.
func WidthFor(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(n - 1)))
}

// Len returns the number of elements.
func (p *PackedArray) Len() int { return p.n }

// MaxValue returns the largest storable value (2^width - 1).
func (p *PackedArray) MaxValue() uint64 {
	if p.width == 64 {
		return ^uint64(0)
	}
	return (1 << p.width) - 1
}

// Get returns element i.
func (p *PackedArray) Get(i int) uint64 {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("bits: packed index %d out of range [0,%d)", i, p.n))
	}
	if p.width == 0 {
		return 0
	}
	bitPos := uint64(i) * uint64(p.width)
	wi, off := bitPos/wordBits, uint(bitPos%wordBits)
	v := p.words[wi] >> off
	if off+p.width > wordBits {
		v |= p.words[wi+1] << (wordBits - off)
	}
	if p.width == 64 {
		return v
	}
	return v & ((1 << p.width) - 1)
}

// Set stores v into element i. v must fit in the element width.
func (p *PackedArray) Set(i int, v uint64) {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("bits: packed index %d out of range [0,%d)", i, p.n))
	}
	if p.width == 0 {
		if v != 0 {
			panic("bits: value does not fit zero-width element")
		}
		return
	}
	if p.width < 64 && v >= 1<<p.width {
		panic(fmt.Sprintf("bits: value %d does not fit in %d bits", v, p.width))
	}
	bitPos := uint64(i) * uint64(p.width)
	wi, off := bitPos/wordBits, uint(bitPos%wordBits)
	mask := p.MaxValue()
	p.words[wi] = p.words[wi]&^(mask<<off) | v<<off
	if off+p.width > wordBits {
		spill := wordBits - off
		p.words[wi+1] = p.words[wi+1]&^(mask>>spill) | v>>spill
	}
}

// Fill sets every element to v.
func (p *PackedArray) Fill(v uint64) {
	for i := 0; i < p.n; i++ {
		p.Set(i, v)
	}
}

// PackedSizeBytes returns the footprint in bytes of an n-element array of the
// given width without allocating it. This is the quantity the join kernel
// budgets against DMEM capacity.
func PackedSizeBytes(n int, width uint) int {
	totalBits := uint64(n) * uint64(width)
	return int((totalBits + wordBits - 1) / wordBits * 8)
}
