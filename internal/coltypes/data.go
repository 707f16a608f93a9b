package coltypes

import "fmt"

// New returns zeroed storage of the given width and length.
func New(w Width, n int) Data {
	switch w {
	case W1:
		return Of(make([]int8, n))
	case W2:
		return Of(make([]int16, n))
	case W4:
		return Of(make([]int32, n))
	case W8:
		return Of(make([]int64, n))
	}
	panic(fmt.Sprintf("coltypes: invalid width %d", w))
}

// OfWords returns a Data of width w and n elements laid over words, without
// copying or clearing them: the view of a leased buffer (see WordsAs).
func OfWords(words []int64, w Width, n int) Data {
	switch w {
	case W1:
		return Of(WordsAs[int8](words, n))
	case W2:
		return Of(WordsAs[int16](words, n))
	case W4:
		return Of(WordsAs[int32](words, n))
	case W8:
		return Of(WordsAs[int64](words, n))
	}
	panic(fmt.Sprintf("coltypes: invalid width %d", w))
}

// FromInt64s builds storage of width w from 64-bit values (truncating).
func FromInt64s(w Width, vals []int64) Data {
	d := New(w, len(vals))
	for i, v := range vals {
		d.Set(i, v)
	}
	return d
}

// ToInt64s widens all elements of d into a new slice.
func ToInt64s(d Data) []int64 {
	out := make([]int64, d.Len())
	for i := range out {
		out[i] = d.Get(i)
	}
	return out
}

// Len returns the number of elements.
func (d Data) Len() int { return d.n }

// Width returns the physical element width.
func (d Data) Width() Width { return d.w }

// SizeBytes returns the storage footprint.
func (d Data) SizeBytes() int { return d.n * int(d.w) }

// NewSame returns a fresh zeroed Data of the same width with n elements.
func (d Data) NewSame(n int) Data { return New(d.w, n) }

// CopyFrom copies src (same width) into d starting at element dstOff.
func (d Data) CopyFrom(dstOff int, src Data) {
	if src.w != d.w {
		panic(fmt.Sprintf("coltypes: CopyFrom of %d-byte Data into %d-byte Data", src.w, d.w))
	}
	copy(d.Slice(dstOff, d.n).bytes(), src.bytes())
}

// Gather copies src[rids[i]] into dst[i] for every i. (In Gather and Scatter
// the 8-byte case is the switch's default, so that the zero Data panics in
// the I64 accessor.) dst and src must have
// the same width and dst.Len() >= len(rids). This is the software analogue
// of the DMS gather pattern; the DMS itself uses it when simulating
// descriptor execution.
func Gather(dst, src Data, rids []uint32) {
	switch src.w {
	case W1:
		gather(dst.I8(), src.I8(), rids)
	case W2:
		gather(dst.I16(), src.I16(), rids)
	case W4:
		gather(dst.I32(), src.I32(), rids)
	default:
		gather(dst.I64(), src.I64(), rids)
	}
}

func gather[T Elem](dst, src []T, rids []uint32) {
	for i, r := range rids {
		dst[i] = src[r]
	}
}

// Scatter copies src[i] into dst[rids[i]] for every i.
func Scatter(dst, src Data, rids []uint32) {
	switch src.w {
	case W1:
		scatter(dst.I8(), src.I8(), rids)
	case W2:
		scatter(dst.I16(), src.I16(), rids)
	case W4:
		scatter(dst.I32(), src.I32(), rids)
	default:
		scatter(dst.I64(), src.I64(), rids)
	}
}

func scatter[T Elem](dst, src []T, rids []uint32) {
	for i, r := range rids {
		dst[r] = src[i]
	}
}
