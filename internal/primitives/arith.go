package primitives

import (
	"math"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
)

// Arithmetic primitives operate on 64-bit accumulators: the compiler inserts
// a widen primitive per input column ("primitive and encoding selection for
// each column", §5.2), keeping the arithmetic kernel matrix small while DSB
// products and sums get 64-bit headroom.

// WidenToI64 copies d into an int64 vector. dst may be nil (allocated) or a
// reusable buffer of at least d.Len() elements.
func WidenToI64(core *dpu.Core, d coltypes.Data, dst []int64) []int64 {
	n := d.Len()
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	switch d.Width() {
	case coltypes.W1:
		widen(dst, d.I8())
	case coltypes.W2:
		widen(dst, d.I16())
	case coltypes.W4:
		widen(dst, d.I32())
	default:
		copy(dst, d.I64())
	}
	charge(core, costWidenPerRow*float64(n))
	return dst
}

func widen[T coltypes.Elem](dst []int64, src []T) {
	for i, v := range src {
		dst[i] = int64(v)
	}
}

// AddConst computes out[i] = in[i] + c.
func AddConst(core *dpu.Core, in []int64, c int64, out []int64) {
	for i, v := range in {
		out[i] = v + c
	}
	charge(core, costArithPerRow*float64(len(in)))
}

// MulConst computes out[i] = in[i] * c. The dpCore multiplier stalls the
// pipeline, so multiplications are billed at dpu.MulStall cycles each.
func MulConst(core *dpu.Core, in []int64, c int64, out []int64) {
	for i, v := range in {
		out[i] = v * c
	}
	charge(core, float64(dpu.MulStall)*float64(len(in)))
}

// DivConst computes out[i] = in[i] / c (integer division; used for decimal
// rescaling). Division runs on the multiplier unit.
func DivConst(core *dpu.Core, in []int64, c int64, out []int64) {
	if c == 0 {
		panic("primitives: division by zero constant")
	}
	for i, v := range in {
		out[i] = v / c
	}
	charge(core, float64(dpu.MulStall)*float64(len(in)))
}

// AddCol computes out[i] = a[i] + b[i].
func AddCol(core *dpu.Core, a, b, out []int64) {
	for i := range a {
		out[i] = a[i] + b[i]
	}
	charge(core, costArithPerRow*float64(len(a)))
}

// SubCol computes out[i] = a[i] - b[i].
func SubCol(core *dpu.Core, a, b, out []int64) {
	for i := range a {
		out[i] = a[i] - b[i]
	}
	charge(core, costArithPerRow*float64(len(a)))
}

// MulCol computes out[i] = a[i] * b[i].
func MulCol(core *dpu.Core, a, b, out []int64) {
	for i := range a {
		out[i] = a[i] * b[i]
	}
	charge(core, float64(dpu.MulStall)*float64(len(a)))
}

// Aggregates of one vector under an optional selection bit-vector.

// AggState accumulates sum/min/max/count.
type AggState struct {
	Sum   int64
	Min   int64
	Max   int64
	Count int64
}

// NewAggState returns an identity accumulator.
func NewAggState() AggState {
	return AggState{Min: math.MaxInt64, Max: math.MinInt64}
}

// Aggregate folds vals (rows of sel when non-nil) into st.
func Aggregate(core *dpu.Core, vals []int64, sel *bits.Vector, st *AggState) {
	update := func(v int64) {
		st.Sum += v
		st.Count++
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	if sel == nil {
		for _, v := range vals {
			update(v)
		}
		charge(core, costAggPerRow*float64(len(vals)))
		return
	}
	n := 0
	for i := sel.NextSet(0); i >= 0; i = sel.NextSet(i + 1) {
		update(vals[i])
		n++
	}
	charge(core, costAggPerRow*float64(n))
}

// GroupedSums, GroupedMins, GroupedMaxs and GroupedCounts fold a tile of rows
// into a per-group accumulator indexed by dense group IDs — the DMEM-resident
// aggregation table of the group-by operator, one array per aggregate. The
// caller sets acc to the fold's identity once (0; math.MaxInt64 for min,
// math.MinInt64 for max); each call adds its rows to what acc holds.
// GroupedCounts with star is the COUNT(*) fast path, billed at half.
func GroupedSums(core *dpu.Core, acc []int64, gids []uint32, vals []int64) {
	for i, gid := range gids {
		acc[gid] += vals[i]
	}
	charge(core, costGroupedAggPerRow*float64(len(gids)))
}

func GroupedMins(core *dpu.Core, acc []int64, gids []uint32, vals []int64) {
	for i, gid := range gids {
		acc[gid] = min(acc[gid], vals[i])
	}
	charge(core, costGroupedAggPerRow*float64(len(gids)))
}

func GroupedMaxs(core *dpu.Core, acc []int64, gids []uint32, vals []int64) {
	for i, gid := range gids {
		acc[gid] = max(acc[gid], vals[i])
	}
	charge(core, costGroupedAggPerRow*float64(len(gids)))
}

func GroupedCounts(core *dpu.Core, acc []int64, gids []uint32, star bool) {
	for _, gid := range gids {
		acc[gid]++
	}
	cost := costGroupedAggPerRow
	if star {
		cost *= 0.5
	}
	charge(core, cost*float64(len(gids)))
}
