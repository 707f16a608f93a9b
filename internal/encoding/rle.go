package encoding

import (
	"fmt"

	"rapid/internal/coltypes"
)

// RLE is the run-length layer of the per-column encoding stack (paper §4.2
// applies "a stack of encodings on each column vector for lightweight
// compression"). A vector compresses into (value, runLength) pairs; scans
// decode runs back into flat DMEM vectors.
type RLE struct {
	Width   coltypes.Width
	Values  []int64
	Lengths []int32
	n       int
}

// EncodeRLE compresses a column vector.
func EncodeRLE(d coltypes.Data) *RLE {
	r := &RLE{Width: d.Width(), n: d.Len()}
	n := d.Len()
	if n == 0 {
		return r
	}
	cur := d.Get(0)
	runLen := int32(1)
	for i := 1; i < n; i++ {
		v := d.Get(i)
		if v == cur {
			runLen++
			continue
		}
		r.Values = append(r.Values, cur)
		r.Lengths = append(r.Lengths, runLen)
		cur, runLen = v, 1
	}
	r.Values = append(r.Values, cur)
	r.Lengths = append(r.Lengths, runLen)
	return r
}

// Len returns the decoded row count.
func (r *RLE) Len() int { return r.n }

// Decode expands the runs into a fresh flat vector.
func (r *RLE) Decode() coltypes.Data {
	d := coltypes.New(r.Width, r.n)
	i := 0
	for ri, v := range r.Values {
		for k := int32(0); k < r.Lengths[ri]; k++ {
			d.Set(i, v)
			i++
		}
	}
	if i != r.n {
		panic(fmt.Sprintf("encoding: RLE corrupt: decoded %d of %d rows", i, r.n))
	}
	return d
}

// SizeBytes returns the compressed footprint (values at column width plus
// 4-byte run lengths).
func (r *RLE) SizeBytes() int {
	return len(r.Values)*r.Width.Bytes() + len(r.Lengths)*4
}

// WorthRLE reports whether RLE should be kept for this vector: the encoding
// selection heuristic keeps the layer only when it actually compresses.
func WorthRLE(d coltypes.Data) (*RLE, bool) {
	r := EncodeRLE(d)
	return r, r.SizeBytes() < d.SizeBytes()
}
