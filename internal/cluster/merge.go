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

// pacc is one aggregate's fold state: a is the running value (SUM partial
// for AVG), b the running count (AVG), seen whether any non-empty partial
// contributed (scalar MIN/MAX).
type pacc struct {
	a, b int64
	seen bool
}

type mgroup struct {
	keys []int64
	accs []pacc
}

// mergePartials folds the gathered per-node partial rows into the final
// relation, using g's original (coordinator-bound) schema for the output
// column metadata. Group output order is first-appearance order in the
// gathered relation (node order, then each node's partial order) — a bag
// identical to the single-node result.
func (q *query) mergePartials(g *plan.GroupBy, gathered *ops.Relation) (*ops.Relation, error) {
	lay, prows := partialLayout(g)
	nk := len(g.Keys)
	outFields := g.Schema()
	if len(outFields) != nk+len(g.Aggs) {
		return nil, fmt.Errorf("cluster: group-by schema mismatch: %d fields for %d keys + %d aggs",
			len(outFields), nk, len(g.Aggs))
	}
	rows := gathered.Rows()

	fold := func(accs []pacc, r int) {
		alive := true
		if prows >= 0 {
			alive = gathered.Col(prows).Get(r) > 0
		}
		for j, l := range lay {
			v := gathered.Col(l.col).Get(r)
			switch l.kind {
			case plan.Sum, plan.Count, plan.CountStar:
				accs[j].a += v
				accs[j].seen = true
			case plan.Avg:
				accs[j].a += v
				accs[j].b += gathered.Col(l.cnt).Get(r)
				accs[j].seen = true
			case plan.Min:
				if alive && (!accs[j].seen || v < accs[j].a) {
					accs[j].a, accs[j].seen = v, true
				}
			case plan.Max:
				if alive && (!accs[j].seen || v > accs[j].a) {
					accs[j].a, accs[j].seen = v, true
				}
			}
		}
	}

	var order []*mgroup
	if nk == 0 {
		gr := &mgroup{accs: make([]pacc, len(lay))}
		order = append(order, gr)
		for r := 0; r < rows; r++ {
			fold(gr.accs, r)
		}
	} else {
		index := make(map[string]*mgroup, rows)
		keybuf := make([]byte, 0, nk*8)
		for r := 0; r < rows; r++ {
			keybuf = keybuf[:0]
			for k := 0; k < nk; k++ {
				v := uint64(gathered.Col(k).Get(r))
				keybuf = append(keybuf,
					byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
					byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
			}
			gr, ok := index[string(keybuf)]
			if !ok {
				gr = &mgroup{keys: make([]int64, nk), accs: make([]pacc, len(lay))}
				for k := 0; k < nk; k++ {
					gr.keys[k] = gathered.Col(k).Get(r)
				}
				index[string(keybuf)] = gr
				order = append(order, gr)
			}
			fold(gr.accs, r)
		}
	}

	n := len(order)
	cols := make([]ops.Col, 0, nk+len(lay))
	data := make([]coltypes.Data, 0, nk+len(lay))
	for k := 0; k < nk; k++ {
		vals := make([]int64, n)
		for i, gr := range order {
			vals[i] = gr.keys[k]
		}
		f := outFields[k]
		cols = append(cols, ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict})
		data = append(data, coltypes.Of(vals))
	}
	for j, l := range lay {
		vals := make([]int64, n)
		for i, gr := range order {
			acc := gr.accs[j]
			switch l.kind {
			case plan.Avg:
				if acc.b != 0 {
					vals[i] = acc.a * 100 / acc.b
				}
			case plan.Min, plan.Max:
				if acc.seen {
					vals[i] = acc.a
				}
			default:
				vals[i] = acc.a
			}
		}
		f := outFields[nk+j]
		cols = append(cols, ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict})
		data = append(data, coltypes.Of(vals))
	}
	return ops.NewRelation(cols, data)
}
