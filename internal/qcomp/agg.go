package qcomp

import (
	"rapid/internal/coltypes"
	"rapid/internal/ops"
	"rapid/internal/plan"
)

// Aggregate decomposition, one set of rules for the single SoC's per-core
// merge (§5.4) and the tray's per-node partials (§7.4):
//
//	SUM/MIN/MAX/COUNT/COUNT(*)  → unchanged: their states fold exactly
//	                              (MIN keeps the smaller, MAX the larger,
//	                              the rest add)
//	AVG                         → SUM + COUNT(*), finalized once on the
//	                              folded totals as sum*100/cnt, so the
//	                              integer truncation happens once
//	scalar partials (no keys)   → an extra __prows COUNT(*): a node that
//	                              aggregated no row still sends a row, whose
//	                              MIN and MAX hold the 0 empty-input answer,
//	                              and the merge must skip it
//
// Grouped partials need no such guard: a group exists on a node only once a
// row fed it. Zero groups without keys is a scalar aggregate over no rows;
// its answer is one row of zeros.

// finalSpec maps lowered aggregate states to one requested column.
type finalSpec struct {
	kind    plan.AggKind
	specIdx int // primary state column (after keys)
	cntIdx  int // COUNT(*) state column for AVG
}

// lowerAggs splits the requested aggregates into the states ops computes and
// the finalSpecs that turn those states back into the requested columns.
func lowerAggs(aggs []plan.AggExpr) ([]plan.AggExpr, []finalSpec) {
	lowered := make([]plan.AggExpr, 0, len(aggs)+1)
	finals := make([]finalSpec, len(aggs))
	for i, a := range aggs {
		finals[i] = finalSpec{kind: a.Kind, specIdx: len(lowered)}
		if a.Kind == plan.Avg {
			finals[i].cntIdx = len(lowered) + 1
			lowered = append(lowered,
				plan.AggExpr{Kind: plan.Sum, Arg: a.Arg, Name: a.Name + "__psum"},
				plan.AggExpr{Kind: plan.CountStar, Name: a.Name + "__pcnt"})
			continue
		}
		lowered = append(lowered, a)
	}
	return lowered, finals
}

// aggKind is the ops fold of a lowered (AVG-free) aggregate.
func aggKind(k plan.AggKind) ops.AggKind {
	switch k {
	case plan.Sum:
		return ops.AggSum
	case plan.Min:
		return ops.AggMin
	case plan.Max:
		return ops.AggMax
	case plan.Count:
		return ops.AggCount
	}
	return ops.AggCountStar
}

// PartialAggs is the aggregate list a node computes for g's two-phase
// aggregation: the lowered states, plus a __prows COUNT(*) when g has no
// keys. MergePartials folds the gathered rows back into g's result.
func PartialAggs(g *plan.GroupBy) []plan.AggExpr {
	lowered, _ := lowerAggs(g.Aggs)
	if len(g.Keys) == 0 {
		lowered = append(lowered, plan.AggExpr{Kind: plan.CountStar, Name: "__prows"})
	}
	return lowered
}

// MergePartials folds the gathered rows of PartialAggs(g) through an
// ops.GroupMerger and finalizes them into g's result: groups come out in the
// merger's ascending key order, as the single SoC's low-NDV group-by returns
// them. Scalar rows whose __prows count is 0 are left out.
func MergePartials(g *plan.GroupBy, gathered *ops.Relation) (*ops.Relation, error) {
	lowered, finals := lowerAggs(g.Aggs)
	nk := len(g.Keys)
	specs := make([]ops.AggSpec, len(lowered))
	for i, a := range lowered {
		specs[i].Kind = aggKind(a.Kind)
	}
	m := ops.NewGroupMerger(nk, specs)
	for _, ch := range gathered.Chunks {
		if nk > 0 {
			m.Fold(ch[:nk], ch[nk:])
			continue
		}
		prows := ch[len(ch)-1]
		for r := 0; r < prows.Len(); r++ {
			if prows.Get(r) == 0 {
				continue
			}
			row := make([]coltypes.Data, len(specs))
			for s := range row {
				row[s] = ch[s].Slice(r, r+1)
			}
			m.Fold(nil, row)
		}
	}
	return finalize(m.Relation(make([]ops.Col, nk), nil), nk, finals, g.Schema())
}

// finalize maps the lowered state columns of raw (keys first, then one
// column per lowered state) to the requested columns out, chunk by chunk:
// keys and plain aggregates pass through, averages are computed.
func finalize(raw *ops.Relation, nKeys int, finals []finalSpec, out []plan.Field) (*ops.Relation, error) {
	cols := make([]ops.Col, nKeys+len(finals))
	for i, fld := range out[:len(cols)] {
		cols[i] = ops.Col{Name: fld.Name, Type: fld.Type, Dict: fld.Dict}
	}
	if nKeys == 0 && raw.Rows() == 0 {
		zeros := make([]coltypes.Data, len(cols))
		for i := range zeros {
			zeros[i] = coltypes.Of([]int64{0})
		}
		return ops.NewRelation(cols, zeros)
	}
	chunks := make([][]coltypes.Data, len(raw.Chunks))
	for k, ch := range raw.Chunks {
		data := append(make([]coltypes.Data, 0, len(cols)), ch[:nKeys]...)
		for _, f := range finals {
			if f.kind != plan.Avg {
				data = append(data, ch[nKeys+f.specIdx])
				continue
			}
			sums, cnts := ch[nKeys+f.specIdx], ch[nKeys+f.cntIdx]
			vals := make([]int64, sums.Len())
			for r := range vals {
				if c := cnts.Get(r); c != 0 {
					vals[r] = sums.Get(r) * 100 / c
				}
			}
			data = append(data, coltypes.Of(vals))
		}
		chunks[k] = data
	}
	return ops.NewRelation(cols, chunks...)
}
