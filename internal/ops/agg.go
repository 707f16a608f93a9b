package ops

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// AggKind selects an aggregate function.
type AggKind int

const (
	AggSum AggKind = iota
	AggMin
	AggMax
	AggCount // COUNT(expr) over qualifying rows
	AggCountStar
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggCount:
		return "COUNT"
	case AggCountStar:
		return "COUNT(*)"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// newAcc sets acc, a per-group accumulator of the kind, to the identity of
// its fold and returns it.
func (k AggKind) newAcc(acc []int64) []int64 {
	v := int64(0)
	switch k {
	case AggMin:
		v = math.MaxInt64
	case AggMax:
		v = math.MinInt64
	}
	for i := range acc {
		acc[i] = v
	}
	return acc
}

// accumulate folds rows — their group ids and values — into acc, a
// per-group accumulator of the kind; COUNT(*) reads no values. Every
// aggregator folds through it: the group ids come from a GroupTable, from a
// PreAggOp's zone offsets, or are all 0 (ScalarAggOp).
func (k AggKind) accumulate(core *dpu.Core, acc []int64, gids []uint32, vals []int64) {
	switch k {
	case AggSum:
		primitives.GroupedSums(core, acc, gids, vals)
	case AggMin:
		primitives.GroupedMins(core, acc, gids, vals)
	case AggMax:
		primitives.GroupedMaxs(core, acc, gids, vals)
	default:
		primitives.GroupedCounts(core, acc, gids, k == AggCountStar)
	}
}

// counts reports whether the kind counts rows rather than folding values.
func (k AggKind) counts() bool { return k == AggCount || k == AggCountStar }

// Merge returns the kind that folds partial states of kind k into one: SUM
// over SUM, COUNT and COUNT(*) states, MIN over MIN, MAX over MAX.
func (k AggKind) Merge() AggKind {
	if k.counts() {
		return AggSum
	}
	return k
}

// rowBlocks walks a tile's selected rows in row order, at most 64 at a time:
//
//	blocks := rowBlocks{t: t}
//	for rows, ok := blocks.next(); ok; rows, ok = blocks.next() { ... }
type rowBlocks struct {
	t   *qef.Tile
	at  int // the next RID, bit-vector word or row
	buf [64]uint32
}

// next returns the next block of rows, false after the last.
func (b *rowBlocks) next() ([]uint32, bool) {
	t, lo := b.t, b.at
	switch {
	case t.RIDs != nil:
		b.at = min(lo+64, len(t.RIDs))
		return t.RIDs[lo:b.at], lo < len(t.RIDs)
	case t.Sel != nil:
		words := t.Sel.Words()
		if lo >= len(words) {
			return nil, false
		}
		b.at++
		k := 0
		for w := words[lo]; w != 0; w &= w - 1 {
			b.buf[k] = uint32(lo<<6 | mathbits.TrailingZeros64(w))
			k++
		}
		return b.buf[:k], true
	}
	b.at = min(lo+64, t.N)
	for r := lo; r < b.at; r++ {
		b.buf[r-lo] = uint32(r)
	}
	return b.buf[:b.at-lo], lo < t.N
}

// gather returns vals at the tile's selected rows, in row order: vals itself
// when the tile is dense, else a copy in tile scratch, billed one cycle a row
// when bill is set.
func gather(tc *qef.TaskCtx, t *qef.Tile, vals []int64, bill bool) []int64 {
	if t.Dense() {
		return vals
	}
	var sub []int64
	if t.RIDs != nil {
		sub = tc.Pool.I64(len(t.RIDs))
		for j, r := range t.RIDs {
			sub[j] = vals[r]
		}
	} else {
		sub = tc.Pool.I64(t.Sel.Count())[:0]
		for wi, w := range t.Sel.Words() {
			for ; w != 0; w &= w - 1 {
				sub = append(sub, vals[wi<<6|mathbits.TrailingZeros64(w)])
			}
		}
	}
	if c := tc.Core; c != nil && bill {
		c.Charge(dpu.Cycles(len(sub)))
	}
	return sub
}

// AggSpec is one aggregate output: a function over node Arg of its
// operator's program (unused by COUNT(*)).
type AggSpec struct {
	Kind AggKind
	Arg  int
	Name string
}

// ScalarAggOp computes ungrouped aggregates: each core folds its rows into
// one group (every group id 0) and, at Close, folds its states into the
// shared zero-key merger (the merge-operator pattern). A core that folded no
// row ships nothing, so its MIN and MAX identities never reach the merged
// group. Prog holds the specs' arguments.
type ScalarAggOp struct {
	Specs  []AggSpec
	Prog   *Program
	Merger *GroupMerger

	accs  [][]int64 // one single-group accumulator per spec
	rows  int       // rows folded
	zeros []uint32  // the group ids of a tile's rows
}

// DMEMSize: per-spec accumulator state, the program's scratch, and each
// argument-reading spec's gather vector.
func (a *ScalarAggOp) DMEMSize(tileRows int) int {
	return len(a.Specs)*32 + a.Prog.ScratchBytes(tileRows) + gatherBytes(a.Specs, tileRows)
}

// gatherBytes is the staging vector each spec that reads an argument gathers
// the selected rows of a tile of tileRows rows into.
func gatherBytes(specs []AggSpec, tileRows int) int {
	total := 0
	for _, spec := range specs {
		if spec.Kind != AggCountStar {
			total += 8 * tileRows
		}
	}
	return total
}

func (a *ScalarAggOp) Open(tc *qef.TaskCtx) error {
	a.accs = make([][]int64, len(a.Specs))
	for i, spec := range a.Specs {
		a.accs[i] = spec.Kind.newAcc(make([]int64, 1))
	}
	a.rows = 0
	return nil
}

// Produce bills each argument-reading spec's fold at costAggPerRow
// (primitives.ChargeAggregate) and a RID list's gather one cycle a row;
// COUNT(*) is free.
func (a *ScalarAggOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	primitives.ChargeTileOverhead(tc.Core)
	n := t.QualifyingRows()
	a.rows += n
	if len(a.zeros) < n {
		a.zeros = make([]uint32, n)
	}
	s := a.Prog.Slots(tc)
	for i, spec := range a.Specs {
		var vals []int64
		if spec.Kind != AggCountStar {
			vals = gather(tc, t, s.Get(tc, t, spec.Arg), t.RIDs != nil)
			primitives.ChargeAggregate(tc.Core, n)
		}
		spec.Kind.accumulate(nil, a.accs[i], a.zeros[:n], vals)
	}
	return nil
}

func (a *ScalarAggOp) Close(tc *qef.TaskCtx) error {
	if a.rows == 0 {
		return nil
	}
	vals := make([]coltypes.Data, len(a.accs))
	for i, acc := range a.accs {
		vals[i] = coltypes.Of(acc)
	}
	a.Merger.Fold(nil, vals)
	return nil
}
