package cluster

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/ops"
	"rapid/internal/plan"
)

// Two-phase aggregation. The partial phase runs the node-local GroupBy with
// decomposable aggregates only:
//
//	SUM/MIN/MAX/COUNT/COUNT(*)  → unchanged (their partials fold exactly)
//	AVG                         → SUM + COUNT(*) partials, finalized at the
//	                              coordinator with the single-node formula
//	                              sum*100/cnt, so the integer truncation
//	                              happens once, on global totals
//	scalar (no GROUP BY)        → an extra __prows COUNT(*), because a
//	                              node with zero matching rows still emits
//	                              a partial row whose MIN/MAX columns hold
//	                              the 0 empty-input sentinel; the merge
//	                              must skip those, not fold the 0 in
//
// Grouped partials need no row guard: a group exists on a node only if at
// least one row fed it.

// partialAggs rewrites a node's aggregate list into its partial form.
func partialAggs(g *plan.GroupBy) []plan.AggExpr {
	out := make([]plan.AggExpr, 0, len(g.Aggs)+1)
	for _, a := range g.Aggs {
		if a.Kind == plan.Avg {
			out = append(out,
				plan.AggExpr{Kind: plan.Sum, Arg: a.Arg, Name: a.Name + "__psum"},
				plan.AggExpr{Kind: plan.CountStar, Name: a.Name + "__pcnt"})
			continue
		}
		out = append(out, a)
	}
	if len(g.Keys) == 0 {
		out = append(out, plan.AggExpr{Kind: plan.CountStar, Name: "__prows"})
	}
	return out
}

// aggLayout locates original aggregate j's partial state in the partial
// relation (absolute column indexes).
type aggLayout struct {
	kind plan.AggKind
	col  int // partial value column (SUM partial for AVG)
	cnt  int // partial COUNT(*) column (AVG only)
}

// partialLayout returns the per-aggregate layout plus the __prows column
// index (-1 for grouped aggregation).
func partialLayout(g *plan.GroupBy) (lay []aggLayout, prows int) {
	col := len(g.Keys)
	for _, a := range g.Aggs {
		if a.Kind == plan.Avg {
			lay = append(lay, aggLayout{kind: plan.Avg, col: col, cnt: col + 1})
			col += 2
			continue
		}
		lay = append(lay, aggLayout{kind: a.Kind, col: col})
		col++
	}
	prows = -1
	if len(g.Keys) == 0 {
		prows = col
	}
	return lay, prows
}

// mergePartials folds the gathered per-node partial rows into the final
// relation through an ops.GroupMerger, using g's original
// (coordinator-bound) schema for the output column metadata. Groups come out
// in the merger's ascending key order, as the single-node low-NDV group-by
// returns them.
func (q *query) mergePartials(g *plan.GroupBy, gathered *ops.Relation) (*ops.Relation, error) {
	lay, prows := partialLayout(g)
	nk := len(g.Keys)
	outFields := g.Schema()
	if len(outFields) != nk+len(g.Aggs) {
		return nil, fmt.Errorf("cluster: group-by schema mismatch: %d fields for %d keys + %d aggs",
			len(outFields), nk, len(g.Aggs))
	}
	partials := gathered.Flat().Chunks[0]
	if prows >= 0 {
		partials = aliveRows(partials, partials[prows])
	}
	// MIN and MAX partials keep their extreme; every other partial (SUM,
	// COUNT, AVG's sum and count, __prows) adds.
	specs := make([]ops.AggSpec, len(partials)-nk)
	for _, l := range lay {
		switch l.kind {
		case plan.Min:
			specs[l.col-nk].Kind = ops.AggMin
		case plan.Max:
			specs[l.col-nk].Kind = ops.AggMax
		}
	}
	cols := make([]ops.Col, len(outFields))
	for i, f := range outFields {
		cols[i] = ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict}
	}
	m := ops.NewGroupMerger(nk, specs)
	m.Fold(partials[:nk], partials[nk:])
	merged := m.Relation(cols, nil)
	data := make([]coltypes.Data, 0, len(cols))
	for k := 0; k < nk; k++ {
		data = append(data, merged.Col(k))
	}
	for _, l := range lay {
		d := merged.Col(l.col)
		if l.kind == plan.Avg {
			cnt := merged.Col(l.cnt)
			vals := make([]int64, d.Len())
			for i := range vals {
				if c := cnt.Get(i); c != 0 {
					vals[i] = d.Get(i) * 100 / c
				}
			}
			d = coltypes.Of(vals)
		}
		data = append(data, d)
	}
	return ops.NewRelation(cols, data)
}

// aliveRows keeps the scalar partial rows of the nodes that fed their
// aggregation a row (__prows > 0): an empty node's MIN/MAX partials hold the
// 0 empty-input sentinel, which must not be folded in. When no node fed a
// row, the first partial row — all identities — is the answer.
func aliveRows(partials []coltypes.Data, prows coltypes.Data) []coltypes.Data {
	var keep []int
	for r := 0; r < prows.Len(); r++ {
		if prows.Get(r) > 0 {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 && prows.Len() > 0 {
		keep = []int{0}
	}
	out := make([]coltypes.Data, len(partials))
	for c, d := range partials {
		vals := make([]int64, len(keep))
		for i, r := range keep {
			vals[i] = d.Get(r)
		}
		out[c] = coltypes.Of(vals)
	}
	return out
}
