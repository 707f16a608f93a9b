package qcomp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// TestMergedPartialsMatchOneAggregation: rows split into 1–8 parts, some of
// them empty, aggregate as PartialAggs per part and MergePartials over the
// gathered partials to what one aggregation over all rows returns — for 0–2
// keys, every aggregate kind, and values of one sign or both, so that an
// empty part's 0 would show in MIN or MAX.
func TestMergedPartialsMatchOneAggregation(t *testing.T) {
	fields := []plan.Field{{Name: "k0", Type: coltypes.Int()}, {Name: "k1", Type: coltypes.Int()}, {Name: "v", Type: coltypes.Int()}}
	leaf := schemaOnly(fields)
	v := &plan.ColRef{Idx: 2, Name: "v", T: coltypes.Int()}
	aggs := []plan.AggExpr{
		{Kind: plan.Sum, Arg: v, Name: "s"},
		{Kind: plan.Min, Arg: v, Name: "lo"},
		{Kind: plan.Max, Arg: v, Name: "hi"},
		{Kind: plan.Count, Arg: v, Name: "c"},
		{Kind: plan.CountStar, Name: "n"},
		{Kind: plan.Avg, Arg: v, Name: "a"},
	}
	aggregate := func(n plan.Node, rel *ops.Relation) *ops.Relation {
		c, err := CompileWithInputs(n, map[plan.Node]*ops.Relation{leaf: rel})
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Execute(qef.NewContext(qef.ModeX86))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	relation := func(rows [][3]int64) *ops.Relation {
		data := make([]coltypes.Data, len(fields))
		cols := make([]ops.Col, len(fields))
		for c, f := range fields {
			vals := make([]int64, len(rows))
			for r, row := range rows {
				vals[r] = row[c]
			}
			cols[c], data[c] = ops.Col{Name: f.Name, Type: f.Type}, coltypes.Of(vals)
		}
		return ops.MustRelation(cols, data)
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nk, nParts := rng.Intn(3), 1+rng.Intn(8)
		keys := []plan.Expr{&plan.ColRef{Idx: 0, Name: "k0", T: coltypes.Int()}, &plan.ColRef{Idx: 1, Name: "k1", T: coltypes.Int()}}[:nk]
		g := &plan.GroupBy{Input: leaf, Keys: keys, Aggs: aggs}
		// Values all negative, all positive, or of both signs.
		bounds := [][2]int64{{-100, -1}, {1, 100}, {-50, 50}}[rng.Intn(3)]
		lo, hi := bounds[0], bounds[1]
		parts := make([][][3]int64, nParts)
		var all [][3]int64
		for p := range parts {
			if rng.Intn(3) == 0 {
				continue // an empty part
			}
			for r := rng.Intn(40); r > 0; r-- {
				row := [3]int64{rng.Int63n(3), rng.Int63n(2), lo + rng.Int63n(hi-lo+1)}
				parts[p] = append(parts[p], row)
				all = append(all, row)
			}
		}
		partial := &plan.GroupBy{Input: leaf, Keys: keys, Aggs: PartialAggs(g)}
		var cols []ops.Col
		var chunks [][]coltypes.Data
		for _, rows := range parts {
			out := aggregate(partial, relation(rows))
			cols, chunks = out.Cols, append(chunks, out.Chunks...)
		}
		merged, err := MergePartials(g, ops.MustRelation(cols, chunks...))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(merged), render(aggregate(g, relation(all))); got != want {
			t.Logf("seed %d: %d keys, %d parts %v:\nmerged %s\none    %s", seed, nk, nParts, parts, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// render lists a relation's rows in order.
func render(rel *ops.Relation) string {
	rows := make([][]int64, rel.Rows())
	for r := range rows {
		for c := 0; c < rel.NumCols(); c++ {
			rows[r] = append(rows[r], rel.Get(r, c))
		}
	}
	return fmt.Sprint(rows)
}
