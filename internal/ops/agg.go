package ops

import (
	"fmt"
	"math"

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

// accumulate folds a tile's rows — their group ids and values — into acc, a
// per-group accumulator of the kind; COUNT(*) reads no values.
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

// AggSpec is one aggregate output: a function over node Arg of its
// operator's program (unused by COUNT(*)).
type AggSpec struct {
	Kind AggKind
	Arg  int
	Name string
}

// ScalarAggOp computes ungrouped aggregates: each core accumulates locally
// and, at Close, folds its states into the shared zero-key merger (the
// merge-operator pattern). A core that aggregated no row folds nothing, so
// its MIN and MAX identities never reach the merged group. Prog holds the
// specs' arguments.
type ScalarAggOp struct {
	Specs  []AggSpec
	Prog   *Program
	Merger *GroupMerger

	local []primitives.AggState
}

// DMEMSize: per-spec accumulator state, the program's scratch, and each
// argument-reading spec's RID-gather staging vector.
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
	a.local = make([]primitives.AggState, len(a.Specs))
	for i := range a.local {
		a.local[i] = primitives.NewAggState()
	}
	return nil
}

func (a *ScalarAggOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	primitives.ChargeTileOverhead(tc.Core)
	s := a.Prog.Slots(tc)
	for i, spec := range a.Specs {
		if spec.Kind == AggCountStar {
			a.local[i].Count += int64(t.QualifyingRows())
			continue
		}
		vals := s.Get(tc, t, spec.Arg)
		if t.RIDs != nil {
			// RID selection: gather the qualifying subset, then fold it.
			sub := tc.Pool.I64(len(t.RIDs))
			for j, r := range t.RIDs {
				sub[j] = vals[r]
			}
			if c := tc.Core; c != nil {
				c.Charge(dpu.Cycles(len(t.RIDs)))
			}
			primitives.Aggregate(tc.Core, sub, nil, &a.local[i])
			continue
		}
		primitives.Aggregate(tc.Core, vals, t.Sel, &a.local[i])
	}
	return nil
}

func (a *ScalarAggOp) Close(tc *qef.TaskCtx) error {
	// Every spec's state counts the rows the core aggregated.
	if len(a.local) == 0 || a.local[0].Count == 0 {
		return nil
	}
	row, vals := make([]int64, len(a.Specs)), make([]coltypes.Data, len(a.Specs))
	for i, spec := range a.Specs {
		row[i] = a.local[i].Count
		switch spec.Kind {
		case AggSum:
			row[i] = a.local[i].Sum
		case AggMin:
			row[i] = a.local[i].Min
		case AggMax:
			row[i] = a.local[i].Max
		}
		vals[i] = coltypes.Of(row[i : i+1])
	}
	a.Merger.Fold(nil, vals)
	return nil
}
