package primitives

// The per-row filter kernels the word kernels of filter.go replaced, kept
// verbatim as the reference the property test and the fuzz target compare
// against: one cmp switch and one Set per row, and masked variants that walk
// the input bit-vector one set bit at a time.

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
)

func cmp[T coltypes.Elem](op plan.CmpOp, a, b T) bool {
	switch op {
	case plan.EQ:
		return a == b
	case plan.NE:
		return a != b
	case plan.LT:
		return a < b
	case plan.LE:
		return a <= b
	case plan.GT:
		return a > b
	case plan.GE:
		return a >= b
	}
	panic("primitives: bad CmpOp")
}

// rowFilterConstBV is the dense first-predicate kernel: evaluate `in[i] op
// cval` for every row and set the output bit-vector. Returns the hit count.
// A constant outside T's domain makes the predicate uniformly true or false
// and is resolved without billing (as in all three constant kernels).
func rowFilterConstBV[T coltypes.Elem](core *dpu.Core, in []T, op plan.CmpOp, cval int64, out *bits.Vector) int {
	c, ok := constFit[T](cval)
	if !ok {
		if !degenerateTrue(op, cval) {
			return 0
		}
		for i := range in {
			out.Set(i)
		}
		return len(in)
	}
	hits := 0
	for i, v := range in {
		if cmp(op, v, c) {
			out.Set(i)
			hits++
		}
	}
	charge(core, FilterCost(len(in)))
	return hits
}

// rowFilterConstBVMasked is Listing 1 (rpdmpr_bvflt): evaluate the predicate
// only on rows set in the input bit-vector (BVLD gathers them), writing the
// surviving rows to out. Per-value cost scales with the candidate count,
// but every bit-vector word must still be loaded and scanned — the reason
// RID lists win below 1/32 density (§5.4).
func rowFilterConstBVMasked[T coltypes.Elem](core *dpu.Core, in []T, op plan.CmpOp, cval int64, inBV, out *bits.Vector) int {
	c, ok := constFit[T](cval)
	hits := 0
	if !ok {
		if !degenerateTrue(op, cval) {
			return 0
		}
		for i := inBV.NextSet(0); i >= 0; i = inBV.NextSet(i + 1) {
			out.Set(i)
			hits++
		}
		return hits
	}
	candidates := 0
	for i := inBV.NextSet(0); i >= 0; i = inBV.NextSet(i + 1) {
		candidates++
		if cmp(op, in[i], c) {
			out.Set(i)
			hits++
		}
	}
	words := (inBV.Len() + 63) / 64
	charge(core, FilterCost(candidates)+costFilterPerWord*float64(words))
	return hits
}

// rowFilterConstRIDs is the RID-list kernel chosen when fewer than 1/32 of the
// rows are expected to qualify (§5.4): scan the candidate RIDs (nil = all
// rows) and append survivors to out.
func rowFilterConstRIDs[T coltypes.Elem](core *dpu.Core, in []T, op plan.CmpOp, cval int64, inRIDs []uint32, out []uint32) []uint32 {
	c, ok := constFit[T](cval)
	if !ok {
		if !degenerateTrue(op, cval) {
			return out
		}
		if inRIDs != nil {
			return append(out, inRIDs...)
		}
		for i := range in {
			out = append(out, uint32(i))
		}
		return out
	}
	if inRIDs == nil {
		for i, v := range in {
			if cmp(op, v, c) {
				out = append(out, uint32(i))
			}
		}
		charge(core, costFilterRIDPerRow*float64(len(in)))
		return out
	}
	for _, r := range inRIDs {
		if cmp(op, in[r], c) {
			out = append(out, r)
		}
	}
	charge(core, costFilterRIDPerRow*float64(len(inRIDs)))
	return out
}

// rowFilterBetweenBV evaluates lo <= in[i] <= hi on rows of inBV (nil = all).
func rowFilterBetweenBV[T coltypes.Elem](core *dpu.Core, in []T, lo, hi T, inBV, out *bits.Vector) int {
	hits := 0
	if inBV == nil {
		for i, v := range in {
			if v >= lo && v <= hi {
				out.Set(i)
				hits++
			}
		}
		charge(core, 2*costFilterPerRow*float64(len(in))+costFilterPerWord*float64((len(in)+63)/64))
		return hits
	}
	candidates := 0
	for i := inBV.NextSet(0); i >= 0; i = inBV.NextSet(i + 1) {
		candidates++
		if v := in[i]; v >= lo && v <= hi {
			out.Set(i)
			hits++
		}
	}
	charge(core, 2*costFilterPerRow*float64(candidates)+costFilterPerWord*float64((candidates+63)/64))
	return hits
}

// rowFilterColColBV evaluates a[i] op b[i] on rows of inBV (nil = all).
func rowFilterColColBV[T coltypes.Elem](core *dpu.Core, a, b []T, op plan.CmpOp, inBV, out *bits.Vector) int {
	hits := 0
	if inBV == nil {
		for i := range a {
			if cmp(op, a[i], b[i]) {
				out.Set(i)
				hits++
			}
		}
		charge(core, FilterCost(len(a))+costGatherPerRow*float64(len(a)))
		return hits
	}
	candidates := 0
	for i := inBV.NextSet(0); i >= 0; i = inBV.NextSet(i + 1) {
		candidates++
		if cmp(op, a[i], b[i]) {
			out.Set(i)
			hits++
		}
	}
	charge(core, FilterCost(candidates)+costGatherPerRow*float64(candidates))
	return hits
}

// rowFilterInSet tests dictionary-code membership against a code bitmap — the
// compiled form of string range/prefix/IN predicates (§4.2). Codes outside
// the bitmap domain fail the predicate.
func rowFilterInSet[T coltypes.Elem](core *dpu.Core, in []T, set *bits.Vector, inBV, out *bits.Vector) int {
	hits := 0
	test := func(v T) bool {
		c := int64(v)
		return c >= 0 && c < int64(set.Len()) && set.Test(int(c))
	}
	if inBV == nil {
		for i, v := range in {
			if test(v) {
				out.Set(i)
				hits++
			}
		}
		charge(core, FilterCost(len(in))+costGatherPerRow*float64(len(in)))
		return hits
	}
	candidates := 0
	for i := inBV.NextSet(0); i >= 0; i = inBV.NextSet(i + 1) {
		candidates++
		if test(in[i]) {
			out.Set(i)
			hits++
		}
	}
	charge(core, FilterCost(candidates)+costGatherPerRow*float64(candidates))
	return hits
}

// The reference wrappers: select the width-specialized instantiation for
// a coltypes.Data, mirroring the generated-primitive lookup. The 8-byte
// kernel is each switch's default, so a zero Data panics in its I64 accessor.

// refFilterConstBV evaluates `d op cval` densely into out, returning hits.
func refFilterConstBV(core *dpu.Core, d coltypes.Data, op plan.CmpOp, cval int64, out *bits.Vector) int {
	switch d.Width() {
	case coltypes.W1:
		return rowFilterConstBV(core, d.I8(), op, cval, out)
	case coltypes.W2:
		return rowFilterConstBV(core, d.I16(), op, cval, out)
	case coltypes.W4:
		return rowFilterConstBV(core, d.I32(), op, cval, out)
	}
	return rowFilterConstBV(core, d.I64(), op, cval, out)
}

// refFilterConstBVMasked evaluates `d op cval` on rows of inBV into out.
func refFilterConstBVMasked(core *dpu.Core, d coltypes.Data, op plan.CmpOp, cval int64, inBV, out *bits.Vector) int {
	switch d.Width() {
	case coltypes.W1:
		return rowFilterConstBVMasked(core, d.I8(), op, cval, inBV, out)
	case coltypes.W2:
		return rowFilterConstBVMasked(core, d.I16(), op, cval, inBV, out)
	case coltypes.W4:
		return rowFilterConstBVMasked(core, d.I32(), op, cval, inBV, out)
	}
	return rowFilterConstBVMasked(core, d.I64(), op, cval, inBV, out)
}

// refFilterConstRIDs evaluates `d op cval` over candidate RIDs (nil = dense
// scan) appending hits to out.
func refFilterConstRIDs(core *dpu.Core, d coltypes.Data, op plan.CmpOp, cval int64, inRIDs []uint32, out []uint32) []uint32 {
	switch d.Width() {
	case coltypes.W1:
		return rowFilterConstRIDs(core, d.I8(), op, cval, inRIDs, out)
	case coltypes.W2:
		return rowFilterConstRIDs(core, d.I16(), op, cval, inRIDs, out)
	case coltypes.W4:
		return rowFilterConstRIDs(core, d.I32(), op, cval, inRIDs, out)
	}
	return rowFilterConstRIDs(core, d.I64(), op, cval, inRIDs, out)
}

// refFilterBetweenBV evaluates lo <= d <= hi on rows of inBV (nil = all).
func refFilterBetweenBV(core *dpu.Core, d coltypes.Data, lo, hi int64, inBV, out *bits.Vector) int {
	w := d.Width()
	// Clamp bounds into the width domain; an empty clamped range means no
	// row can qualify.
	if lo < w.MinInt() {
		lo = w.MinInt()
	}
	if hi > w.MaxInt() {
		hi = w.MaxInt()
	}
	if lo > hi {
		return 0
	}
	switch w {
	case coltypes.W1:
		return rowFilterBetweenBV(core, d.I8(), int8(lo), int8(hi), inBV, out)
	case coltypes.W2:
		return rowFilterBetweenBV(core, d.I16(), int16(lo), int16(hi), inBV, out)
	case coltypes.W4:
		return rowFilterBetweenBV(core, d.I32(), int32(lo), int32(hi), inBV, out)
	}
	return rowFilterBetweenBV(core, d.I64(), lo, hi, inBV, out)
}

// refFilterColColBV evaluates a[i] op b[i]; a and b may have different widths
// (widened comparison).
func refFilterColColBV(core *dpu.Core, a, b coltypes.Data, op plan.CmpOp, inBV, out *bits.Vector) int {
	if a.Width() == b.Width() {
		switch a.Width() {
		case coltypes.W1:
			return rowFilterColColBV(core, a.I8(), b.I8(), op, inBV, out)
		case coltypes.W2:
			return rowFilterColColBV(core, a.I16(), b.I16(), op, inBV, out)
		case coltypes.W4:
			return rowFilterColColBV(core, a.I32(), b.I32(), op, inBV, out)
		}
		return rowFilterColColBV(core, a.I64(), b.I64(), op, inBV, out)
	}
	// Mixed widths: widen both (the compiler normally inserts explicit
	// widen primitives; this fallback keeps the operator correct).
	aw := WidenToI64(core, a, nil)
	bw := WidenToI64(core, b, nil)
	return rowFilterColColBV(core, aw, bw, op, inBV, out)
}

// refFilterInSetBV tests dictionary-code membership on rows of inBV (nil=all).
func refFilterInSetBV(core *dpu.Core, d coltypes.Data, set *bits.Vector, inBV, out *bits.Vector) int {
	switch d.Width() {
	case coltypes.W1:
		return rowFilterInSet(core, d.I8(), set, inBV, out)
	case coltypes.W2:
		return rowFilterInSet(core, d.I16(), set, inBV, out)
	case coltypes.W4:
		return rowFilterInSet(core, d.I32(), set, inBV, out)
	}
	return rowFilterInSet(core, d.I64(), set, inBV, out)
}
