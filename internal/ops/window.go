package ops

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/qef"
)

// Window functions (§5.4): analytic aggregates and rank with PARTITION BY.
// The relation is sorted by (partition keys, order keys); a scan then
// computes the function per partition. Partition boundaries are detected on
// the sorted key columns.

// WindowFunc selects the window function.
type WindowFunc int

const (
	WinRowNumber WindowFunc = iota
	WinRank
	WinDenseRank
	WinCumSum // running SUM(value) within the partition
	WinSum    // partition-total SUM(value) on every row
)

func (f WindowFunc) String() string {
	switch f {
	case WinRowNumber:
		return "ROW_NUMBER"
	case WinRank:
		return "RANK"
	case WinDenseRank:
		return "DENSE_RANK"
	case WinCumSum:
		return "CUM_SUM"
	case WinSum:
		return "SUM"
	}
	return fmt.Sprintf("WindowFunc(%d)", int(f))
}

// WindowSpec configures one window computation.
type WindowSpec struct {
	Func        WindowFunc
	PartitionBy []int
	OrderBy     []SortKey
	ValueCol    int // WinCumSum / WinSum input
	Name        string
}

// Window returns rel sorted by (PartitionBy, OrderBy) with the window
// column appended.
func Window(ctx *qef.Context, rel *Relation, spec WindowSpec) (*Relation, error) {
	keys := make([]SortKey, 0, len(spec.PartitionBy)+len(spec.OrderBy))
	for _, p := range spec.PartitionBy {
		keys = append(keys, SortKey{Col: p})
	}
	keys = append(keys, spec.OrderBy...)
	sorted, err := SortRelation(ctx, rel, keys)
	if err != nil {
		return nil, err
	}
	n := sorted.Rows()
	out := make([]int64, n)
	err = ctx.RunSerial(func(tc *qef.TaskCtx) error {
		samePartition := func(i, j int) bool {
			for _, p := range spec.PartitionBy {
				if sorted.Cols[p].Data.Get(i) != sorted.Cols[p].Data.Get(j) {
					return false
				}
			}
			return true
		}
		sameOrder := func(i, j int) bool {
			for _, sk := range spec.OrderBy {
				if sorted.Cols[sk.Col].Data.Get(i) != sorted.Cols[sk.Col].Data.Get(j) {
					return false
				}
			}
			return true
		}
		var valCol coltypes.Data
		if spec.Func == WinCumSum || spec.Func == WinSum {
			valCol = sorted.Cols[spec.ValueCol].Data
		}
		start := 0
		for start < n {
			end := start + 1
			for end < n && samePartition(start, end) {
				end++
			}
			switch spec.Func {
			case WinRowNumber:
				for i := start; i < end; i++ {
					out[i] = int64(i - start + 1)
				}
			case WinRank:
				rank := int64(1)
				for i := start; i < end; i++ {
					if i > start && !sameOrder(i-1, i) {
						rank = int64(i - start + 1)
					}
					out[i] = rank
				}
			case WinDenseRank:
				rank := int64(1)
				for i := start; i < end; i++ {
					if i > start && !sameOrder(i-1, i) {
						rank++
					}
					out[i] = rank
				}
			case WinCumSum:
				var sum int64
				for i := start; i < end; i++ {
					sum += valCol.Get(i)
					out[i] = sum
				}
			case WinSum:
				var sum int64
				for i := start; i < end; i++ {
					sum += valCol.Get(i)
				}
				for i := start; i < end; i++ {
					out[i] = sum
				}
			}
			start = end
		}
		if c := tc.Core; c != nil {
			c.Charge(dpu.Cycles(3 * n))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = spec.Func.String()
	}
	cols := append(append([]Col(nil), sorted.Cols...), Col{
		Name: name,
		Type: coltypes.Int(),
		Data: coltypes.Of(out),
	})
	return MustRelation(cols), nil
}
