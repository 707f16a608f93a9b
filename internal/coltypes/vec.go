package coltypes

import (
	"fmt"
	"unsafe"
)

// This file holds all of the package's — and the repository's — unsafe
// code: the representation of Data, the operations that look through its
// pointer (Of, the typed accessors, Get, Set, Slice, bytes) and WordsAs, the
// typed view of a word buffer. Everything else in the tree, including
// the rest of this package, goes through them.

// Elem constrains the physical element types of column storage.
type Elem interface {
	~int8 | ~int16 | ~int32 | ~int64
}

// Data is the physical storage of one column vector: a flat array of
// fixed-width integers, held as a three-word value (first element, length,
// element width). Copying a Data, and taking a Slice of one, copies those
// three words and never allocates; the copies alias the same elements, as
// slices do. The zero Data is an empty vector of width 0 that no typed
// accessor accepts.
//
// Width-generic plumbing (operators, DMS, storage) uses the methods;
// performance-critical primitives switch on Width and run width-specialized
// kernels over the typed accessors I8/I16/I32/I64, mirroring the paper's
// generated type-specialized primitives.
type Data struct {
	p unsafe.Pointer // element 0; the array it points into holds at least n elements of width w
	n int
	w Width
}

// Of returns a Data over the elements of s, without copying.
func Of[T Elem](s []T) Data {
	var z T
	return Data{p: unsafe.Pointer(unsafe.SliceData(s)), n: len(s), w: Width(unsafe.Sizeof(z))}
}

// Plain constrains what a buffer of words (a mem.Slab lease, mem.TilePool
// scratch) may be viewed as: fixed-size elements that hold no pointer — the
// words are allocated pointer-free, so the collector would never see one
// stored through a view — and need no more than word alignment.
type Plain interface {
	Elem | ~uint32 | ~uint64 | ~struct{ BuildRow, ProbeRow uint32 }
}

// WordsAs returns n elements of type T laid over words, sharing their
// storage. It panics when words is too short to hold them.
func WordsAs[T Plain](words []int64, n int) []T {
	var z T
	if size := int(unsafe.Sizeof(z)); n < 0 || n*size > 8*len(words) {
		panic(boundsError{lo: 0, hi: n, n: 8 * len(words) / size})
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// The typed accessors return d's elements as a slice sharing d's storage;
// each panics, naming both widths, when d has another element width. They
// are written out per type, not as one generic function, so that they
// inline into the kernels' dispatch switches.

// I8 returns the elements of a 1-byte-wide d.
func (d Data) I8() []int8 {
	if d.w != W1 {
		panic(widthError{want: W1, have: d.w})
	}
	return unsafe.Slice((*int8)(d.p), d.n)
}

// I16 returns the elements of a 2-byte-wide d.
func (d Data) I16() []int16 {
	if d.w != W2 {
		panic(widthError{want: W2, have: d.w})
	}
	return unsafe.Slice((*int16)(d.p), d.n)
}

// I32 returns the elements of a 4-byte-wide d.
func (d Data) I32() []int32 {
	if d.w != W4 {
		panic(widthError{want: W4, have: d.w})
	}
	return unsafe.Slice((*int32)(d.p), d.n)
}

// I64 returns the elements of an 8-byte-wide d.
func (d Data) I64() []int64 {
	if d.w != W8 {
		panic(widthError{want: W8, have: d.w})
	}
	return unsafe.Slice((*int64)(d.p), d.n)
}

// Get returns element i sign-extended to 64 bits. Get and Set address the
// element directly instead of going through a typed accessor: that keeps
// them small enough to inline into the width-generic loops of the load path.
func (d Data) Get(i int) int64 {
	p := d.at(i)
	switch d.w {
	case W1:
		return int64(*(*int8)(p))
	case W2:
		return int64(*(*int16)(p))
	case W4:
		return int64(*(*int32)(p))
	}
	return *(*int64)(p)
}

// Set stores v into element i, truncating to the physical width.
func (d Data) Set(i int, v int64) {
	p := d.at(i)
	switch d.w {
	case W1:
		*(*int8)(p) = int8(v)
	case W2:
		*(*int16)(p) = int16(v)
	case W4:
		*(*int32)(p) = int32(v)
	default:
		*(*int64)(p) = v
	}
}

// at returns the address of element i, which must exist (so d is not the
// zero Data, and its width is one of the four).
func (d Data) at(i int) unsafe.Pointer {
	if uint(i) >= uint(d.n) {
		panic(boundsError{lo: i, hi: i + 1, n: d.n})
	}
	return unsafe.Add(d.p, i*int(d.w))
}

// Slice returns a view of elements [lo, hi).
func (d Data) Slice(lo, hi int) Data {
	if lo < 0 || hi < lo || hi > d.n {
		panic(boundsError{lo: lo, hi: hi, n: d.n})
	}
	if lo < hi { // an empty view keeps the base pointer: p never points past its array
		d.p = unsafe.Add(d.p, lo*int(d.w))
	}
	d.n = hi - lo
	return d
}

// bytes returns d's storage as bytes, for width-independent copy.
func (d Data) bytes() []byte { return unsafe.Slice((*byte)(d.p), d.n*int(d.w)) }

// widthError is the panic value of a typed accessor asked for the wrong
// width. Panicking with an error value that formats itself costs the
// accessors (and Slice, Get and Set) less inlining budget than a call that
// formats the message would.
type widthError struct{ want, have Width }

func (e widthError) Error() string {
	return fmt.Sprintf("coltypes: %d-byte accessor on %d-byte Data", e.want, e.have)
}

// boundsError is the panic value of Slice, Get and Set (as [i:i+1]) outside
// the vector.
type boundsError struct{ lo, hi, n int }

func (e boundsError) Error() string {
	return fmt.Sprintf("coltypes: elements [%d:%d] out of range with length %d", e.lo, e.hi, e.n)
}
