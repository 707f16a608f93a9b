package primitives

import (
	mbits "math/bits"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
)

// The filter kernels work a bit-vector word at a time, as BVLD/FILT do on
// the dpCore (Listing 1): each builds one 64-row output word branch-free and
// stores it whole, so their speed does not depend on selectivity. The bill
// stays per row plus per word (FilterCost); it is charged from the counts
// the kernels would have visited row by row.

// b2u is 1 for true and 0 for false; the compiler emits a SETcc, not a
// branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// lowBits is the mask of the k ≤ 64 lowest bits, k ≥ 1.
func lowBits(k int) uint64 { return ^uint64(0) >> (uint(64-k) & 63) }

// splitOp reduces op to one of the three base comparisons EQ, LT and GT and
// the word to XOR with its result: NE, GE and LE are the complements of EQ,
// LT and GT.
func splitOp(op plan.CmpOp) (plan.CmpOp, uint64) {
	switch op {
	case plan.EQ, plan.LT, plan.GT:
		return op, 0
	case plan.NE:
		return plan.EQ, ^uint64(0)
	case plan.GE:
		return plan.LT, ^uint64(0)
	case plan.LE:
		return plan.GT, ^uint64(0)
	}
	panic("primitives: bad CmpOp")
}

// constWord returns bit j set where in[j] base c, for len(in) ≤ 64. The
// operator is chosen once per word, never per row.
func constWord[T coltypes.Elem](in []T, base plan.CmpOp, c T) (r uint64) {
	switch base {
	case plan.EQ:
		for j := len(in) - 1; j >= 0; j-- {
			r = r<<1 | b2u(in[j] == c)
		}
	case plan.LT:
		for j := len(in) - 1; j >= 0; j-- {
			r = r<<1 | b2u(in[j] < c)
		}
	default:
		for j := len(in) - 1; j >= 0; j-- {
			r = r<<1 | b2u(in[j] > c)
		}
	}
	return r
}

// colColWord returns bit j set where a[j] base b[j], for len(a) ≤ 64.
func colColWord[T coltypes.Elem](a, b []T, base plan.CmpOp) (r uint64) {
	b = b[:len(a)]
	switch base {
	case plan.EQ:
		for j := len(a) - 1; j >= 0; j-- {
			r = r<<1 | b2u(a[j] == b[j])
		}
	case plan.LT:
		for j := len(a) - 1; j >= 0; j-- {
			r = r<<1 | b2u(a[j] < b[j])
		}
	default:
		for j := len(a) - 1; j >= 0; j-- {
			r = r<<1 | b2u(a[j] > b[j])
		}
	}
	return r
}

// betweenWord returns bit j set where lo <= in[j] <= hi, for len(in) ≤ 64
// and lo <= hi: one unsigned comparison of the offset from lo.
func betweenWord[T coltypes.Elem](in []T, lo, hi T) (r uint64) {
	span := uint64(int64(hi) - int64(lo))
	for j := len(in) - 1; j >= 0; j-- {
		r = r<<1 | b2u(uint64(int64(in[j])-int64(lo)) <= span)
	}
	return r
}

// inSetWord returns bit j set where in[j] is a code set in the bitmap of
// setLen bits held in set, for len(in) ≤ 64; codes outside [0, setLen) fail.
func inSetWord[T coltypes.Elem](in []T, set []uint64, setLen int) (r uint64) {
	if setLen == 0 {
		return 0
	}
	n := uint64(setLen)
	for j := len(in) - 1; j >= 0; j-- {
		x := uint64(int64(in[j]))
		ok := b2u(x < n)
		x &= -ok // out-of-domain codes read bit 0 and are masked off
		r = r<<1 | set[x>>6]>>(x&63)&ok
	}
	return r
}

// wordLoop stores every output word of an n-row predicate: word(lo, hi)
// gives the predicate bits of rows [lo, hi), masked to the rows present and,
// when inBV is set, ANDed with its word; zero input words are not
// evaluated. It returns the hits and the candidate rows (n when dense).
func wordLoop(n int, inBV, out *bits.Vector, word func(lo, hi int) uint64) (hits, candidates int) {
	words := out.Words()[:(n+63)/64]
	var in []uint64
	if inBV != nil {
		in = inBV.Words()[:len(words)]
	} else {
		candidates = n
	}
	for wi := range words {
		lo := wi * 64
		hi := min(lo+64, n)
		m := lowBits(hi - lo)
		if in != nil {
			m = in[wi]
			candidates += mbits.OnesCount64(m)
			if m == 0 {
				words[wi] = 0
				continue
			}
		}
		r := word(lo, hi) & m
		words[wi] = r
		hits += mbits.OnesCount64(r)
	}
	return hits, candidates
}

// degenerateWord resolves a constant outside T's domain: the predicate is
// then uniformly true or false, and its word is all ones or zero.
func degenerateWord(op plan.CmpOp, cval int64) func(lo, hi int) uint64 {
	w := -b2u(degenerateTrue(op, cval))
	return func(int, int) uint64 { return w }
}

// filterConstBV evaluates `in[i] op cval` on the rows of inBV (nil = all)
// into the output words. Returns the hit count. A constant outside T's
// domain makes the predicate uniformly true or false and is resolved without
// billing (as in all three constant kernels). Masked, it is Listing 1
// (rpdmpr_bvflt): per-value cost scales with the candidate count, but every
// bit-vector word must still be loaded and scanned (BVLD) — the reason RID
// lists win below 1/32 density (§5.4).
func filterConstBV[T coltypes.Elem](core *dpu.Core, in []T, op plan.CmpOp, cval int64, inBV, out *bits.Vector) int {
	c, ok := constFit[T](cval)
	if !ok {
		hits, _ := wordLoop(len(in), inBV, out, degenerateWord(op, cval))
		return hits
	}
	base, flip := splitOp(op)
	hits, candidates := wordLoop(len(in), inBV, out, func(lo, hi int) uint64 {
		return constWord(in[lo:hi], base, c) ^ flip
	})
	if inBV == nil {
		charge(core, FilterCost(len(in)))
	} else {
		words := (inBV.Len() + 63) / 64
		charge(core, FilterCost(candidates)+costFilterPerWord*float64(words))
	}
	return hits
}

// filterConstRIDs is the RID-list kernel chosen when fewer than 1/32 of the
// rows are expected to qualify (§5.4): scan the candidate RIDs (nil = all
// rows) 64 at a time and append survivors to out.
func filterConstRIDs[T coltypes.Elem](core *dpu.Core, in []T, op plan.CmpOp, cval int64, inRIDs []uint32, out []uint32) []uint32 {
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
	base, flip := splitOp(op)
	if inRIDs == nil {
		for lo := 0; lo < len(in); lo += 64 {
			hi := min(lo+64, len(in))
			w := (constWord(in[lo:hi], base, c) ^ flip) & lowBits(hi-lo)
			for ; w != 0; w &= w - 1 {
				out = append(out, uint32(lo+mbits.TrailingZeros64(w)))
			}
		}
		charge(core, costFilterRIDPerRow*float64(len(in)))
		return out
	}
	var vals [64]T
	for lo := 0; lo < len(inRIDs); lo += 64 {
		rids := inRIDs[lo:min(lo+64, len(inRIDs))]
		for j, r := range rids {
			vals[j] = in[r]
		}
		w := (constWord(vals[:len(rids)], base, c) ^ flip) & lowBits(len(rids))
		for ; w != 0; w &= w - 1 {
			out = append(out, rids[mbits.TrailingZeros64(w)])
		}
	}
	charge(core, costFilterRIDPerRow*float64(len(inRIDs)))
	return out
}

// filterBetweenBV evaluates lo <= in[i] <= hi on rows of inBV (nil = all);
// lo <= hi.
func filterBetweenBV[T coltypes.Elem](core *dpu.Core, in []T, lo, hi T, inBV, out *bits.Vector) int {
	hits, candidates := wordLoop(len(in), inBV, out, func(l, h int) uint64 {
		return betweenWord(in[l:h], lo, hi)
	})
	charge(core, 2*costFilterPerRow*float64(candidates)+costFilterPerWord*float64((candidates+63)/64))
	return hits
}

// filterColColBV evaluates a[i] op b[i] on rows of inBV (nil = all).
func filterColColBV[T coltypes.Elem](core *dpu.Core, a, b []T, op plan.CmpOp, inBV, out *bits.Vector) int {
	base, flip := splitOp(op)
	hits, candidates := wordLoop(len(a), inBV, out, func(lo, hi int) uint64 {
		return colColWord(a[lo:hi], b[lo:hi], base) ^ flip
	})
	charge(core, FilterCost(candidates)+costGatherPerRow*float64(candidates))
	return hits
}

// filterInSet tests dictionary-code membership against a code bitmap — the
// compiled form of string range/prefix/IN predicates (§4.2). Codes outside
// the bitmap domain fail the predicate.
func filterInSet[T coltypes.Elem](core *dpu.Core, in []T, set *bits.Vector, inBV, out *bits.Vector) int {
	hits, candidates := wordLoop(len(in), inBV, out, func(lo, hi int) uint64 {
		return inSetWord(in[lo:hi], set.Words(), set.Len())
	})
	charge(core, FilterCost(candidates)+costGatherPerRow*float64(candidates))
	return hits
}

// Data-dispatching wrappers: select the width-specialized instantiation for
// a coltypes.Data, mirroring the generated-primitive lookup. The 8-byte
// kernel is each switch's default, so a zero Data panics in its I64 accessor.

// FilterConstBV evaluates `d op cval` densely into out, returning hits.
func FilterConstBV(core *dpu.Core, d coltypes.Data, op plan.CmpOp, cval int64, out *bits.Vector) int {
	return FilterConstBVMasked(core, d, op, cval, nil, out)
}

// FilterConstBVMasked evaluates `d op cval` on rows of inBV (nil = all) into
// out.
func FilterConstBVMasked(core *dpu.Core, d coltypes.Data, op plan.CmpOp, cval int64, inBV, out *bits.Vector) int {
	switch d.Width() {
	case coltypes.W1:
		return filterConstBV(core, d.I8(), op, cval, inBV, out)
	case coltypes.W2:
		return filterConstBV(core, d.I16(), op, cval, inBV, out)
	case coltypes.W4:
		return filterConstBV(core, d.I32(), op, cval, inBV, out)
	}
	return filterConstBV(core, d.I64(), op, cval, inBV, out)
}

// FilterConstRIDs evaluates `d op cval` over candidate RIDs (nil = dense
// scan) appending hits to out.
func FilterConstRIDs(core *dpu.Core, d coltypes.Data, op plan.CmpOp, cval int64, inRIDs []uint32, out []uint32) []uint32 {
	switch d.Width() {
	case coltypes.W1:
		return filterConstRIDs(core, d.I8(), op, cval, inRIDs, out)
	case coltypes.W2:
		return filterConstRIDs(core, d.I16(), op, cval, inRIDs, out)
	case coltypes.W4:
		return filterConstRIDs(core, d.I32(), op, cval, inRIDs, out)
	}
	return filterConstRIDs(core, d.I64(), op, cval, inRIDs, out)
}

// FilterBetweenBV evaluates lo <= d <= hi on rows of inBV (nil = all).
func FilterBetweenBV(core *dpu.Core, d coltypes.Data, lo, hi int64, inBV, out *bits.Vector) int {
	w := d.Width()
	// Clamp bounds into the width domain; an empty clamped range means no
	// row can qualify, and is resolved without billing.
	if lo < w.MinInt() {
		lo = w.MinInt()
	}
	if hi > w.MaxInt() {
		hi = w.MaxInt()
	}
	if lo > hi {
		out.ClearAll()
		return 0
	}
	switch w {
	case coltypes.W1:
		return filterBetweenBV(core, d.I8(), int8(lo), int8(hi), inBV, out)
	case coltypes.W2:
		return filterBetweenBV(core, d.I16(), int16(lo), int16(hi), inBV, out)
	case coltypes.W4:
		return filterBetweenBV(core, d.I32(), int32(lo), int32(hi), inBV, out)
	}
	return filterBetweenBV(core, d.I64(), lo, hi, inBV, out)
}

// FilterColColBV evaluates a[i] op b[i]; a and b may have different widths
// (widened comparison).
func FilterColColBV(core *dpu.Core, a, b coltypes.Data, op plan.CmpOp, inBV, out *bits.Vector) int {
	if a.Width() == b.Width() {
		switch a.Width() {
		case coltypes.W1:
			return filterColColBV(core, a.I8(), b.I8(), op, inBV, out)
		case coltypes.W2:
			return filterColColBV(core, a.I16(), b.I16(), op, inBV, out)
		case coltypes.W4:
			return filterColColBV(core, a.I32(), b.I32(), op, inBV, out)
		}
		return filterColColBV(core, a.I64(), b.I64(), op, inBV, out)
	}
	// Mixed widths: widen both (the compiler normally inserts explicit
	// widen primitives; this fallback keeps the operator correct).
	aw := WidenToI64(core, a, nil)
	bw := WidenToI64(core, b, nil)
	return filterColColBV(core, aw, bw, op, inBV, out)
}

// FilterInSetBV tests dictionary-code membership on rows of inBV (nil=all).
func FilterInSetBV(core *dpu.Core, d coltypes.Data, set *bits.Vector, inBV, out *bits.Vector) int {
	switch d.Width() {
	case coltypes.W1:
		return filterInSet(core, d.I8(), set, inBV, out)
	case coltypes.W2:
		return filterInSet(core, d.I16(), set, inBV, out)
	case coltypes.W4:
		return filterInSet(core, d.I32(), set, inBV, out)
	}
	return filterInSet(core, d.I64(), set, inBV, out)
}

// constFit narrows a 64-bit constant, reporting whether it is representable
// at the column width.
func constFit[T coltypes.Elem](v int64) (T, bool) {
	t := T(v)
	return t, int64(t) == v
}

// degenerateTrue reports whether `x op cval` holds for every x of a column
// whose (signed) physical domain does not contain cval: cval is then above
// the domain when positive and below it when negative.
func degenerateTrue(op plan.CmpOp, cval int64) bool {
	above := cval > 0
	switch op {
	case plan.NE:
		return true
	case plan.LT, plan.LE:
		return above
	case plan.GT, plan.GE:
		return !above
	}
	return false
}
