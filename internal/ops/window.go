package ops

import (
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// Window functions (§5.4): analytic aggregates and rank with PARTITION BY.
// The relation is sorted by (partition keys, order keys); a scan then
// computes the function per partition. Partition boundaries are detected on
// the sorted key columns.

// WindowSpec configures one window computation.
type WindowSpec struct {
	Func        plan.WindowFunc
	PartitionBy []int
	OrderBy     []plan.SortItem
	ValueCol    int // CumSum / WinTotalSum input
	Name        string
}

// Window returns rel sorted by (PartitionBy, OrderBy) with the window
// column appended.
func Window(ctx *qef.Context, rel *Relation, spec WindowSpec) (*Relation, error) {
	keys := make([]plan.SortItem, 0, len(spec.PartitionBy)+len(spec.OrderBy))
	for _, p := range spec.PartitionBy {
		keys = append(keys, plan.SortItem{Col: p})
	}
	keys = append(keys, spec.OrderBy...)
	sorted, err := SortRelation(ctx, rel, keys)
	if err != nil {
		return nil, err
	}
	sorted = sorted.Flat()
	n := sorted.Rows()
	out := make([]int64, n)
	err = ctx.RunSerial(func(tc *qef.TaskCtx) error {
		samePartition := func(i, j int) bool {
			for _, p := range spec.PartitionBy {
				if sorted.Col(p).Get(i) != sorted.Col(p).Get(j) {
					return false
				}
			}
			return true
		}
		sameOrder := func(i, j int) bool {
			for _, sk := range spec.OrderBy {
				if sorted.Col(sk.Col).Get(i) != sorted.Col(sk.Col).Get(j) {
					return false
				}
			}
			return true
		}
		var valCol coltypes.Data
		if spec.Func == plan.CumSum || spec.Func == plan.WinTotalSum {
			valCol = sorted.Col(spec.ValueCol)
		}
		start := 0
		for start < n {
			end := start + 1
			for end < n && samePartition(start, end) {
				end++
			}
			switch spec.Func {
			case plan.RowNumber:
				for i := start; i < end; i++ {
					out[i] = int64(i - start + 1)
				}
			case plan.Rank:
				rank := int64(1)
				for i := start; i < end; i++ {
					if i > start && !sameOrder(i-1, i) {
						rank = int64(i - start + 1)
					}
					out[i] = rank
				}
			case plan.DenseRank:
				rank := int64(1)
				for i := start; i < end; i++ {
					if i > start && !sameOrder(i-1, i) {
						rank++
					}
					out[i] = rank
				}
			case plan.CumSum:
				var sum int64
				for i := start; i < end; i++ {
					sum += valCol.Get(i)
					out[i] = sum
				}
			case plan.WinTotalSum:
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
	cols := append(append([]Col(nil), sorted.Cols...), Col{Name: spec.Name, Type: coltypes.Int()})
	return MustRelation(cols, append(append([]coltypes.Data(nil), sorted.Chunks[0]...), coltypes.Of(out))), nil
}
