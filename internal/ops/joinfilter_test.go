package ops

import (
	"math/rand"
	"slices"
	"testing"

	"rapid/internal/plan"
	"rapid/internal/qef"
)

// filterRelation collects the rows of rel that pass jf.
func filterRelation(t *testing.T, ctx *qef.Context, rel *Relation, jf *JoinFilter) *Relation {
	t.Helper()
	sink := NewCollectSink(rel.Cols)
	if err := RelationScan(ctx, rel, 256, func() qef.Operator { return &FilterOp{Pred: jf, Next: sink} }); err != nil {
		t.Fatal(err)
	}
	return sink.Relation()
}

// TestJoinFilterKeepsEveryMatch: an inner or semi join of one or two keys
// whose probe side is first collected through the build side's join filter
// answers the bag of rows the unfiltered join does, for build sides with
// repeated keys, a build side of one row and an empty one, and over a
// scheme of one to two rounds. The filter drops rows, and counts each row it
// drops once.
func TestJoinFilterKeepsEveryMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const np = 6000
	probe := intRel([]string{"pk", "pk2", "pv"},
		seq(np, func(int) int64 { return int64(rng.Intn(8000)) }),
		seq(np, func(int) int64 { return int64(rng.Intn(3)) }),
		seq(np, func(i int) int64 { return int64(i) }))
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		for _, nb := range []int{0, 1, 700} {
			build := intRel([]string{"bk", "bk2", "bv"},
				seq(nb, func(int) int64 { return int64(rng.Intn(400) * 20) }),
				seq(nb, func(int) int64 { return int64(rng.Intn(3)) }),
				seq(nb, func(i int) int64 { return int64(10 * i) }))
			for _, typ := range []plan.JoinType{plan.InnerJoin, plan.SemiJoin} {
				for _, keys := range [][]int{{0}, {0, 1}} {
					for _, scheme := range []string{"32", "8x16"} {
						spec := JoinSpec{Type: typ, BuildKeys: keys, ProbeKeys: keys,
							ProbePayload: []int{2, 0}, Scheme: pinScheme(scheme)}
						if typ == plan.InnerJoin {
							spec.BuildPayload = []int{2}
						}
						want, err := HashJoin(ctx, build, probe, spec)
						if err != nil {
							t.Fatal(err)
						}
						jb, err := NewJoinBuild(build, spec)
						if err != nil {
							t.Fatal(err)
						}
						jf, err := jb.Filter(ctx, keys, 14)
						if err != nil {
							t.Fatal(err)
						}
						filtered := filterRelation(t, ctx, probe, jf)
						got, err := jb.Probe(ctx, filtered)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.EqualFunc(sortedRows(got), sortedRows(want), slices.Equal) {
							t.Fatalf("%d build rows, join type %d, keys %v, scheme %s: filtered join answers %d rows, unfiltered %d",
								nb, typ, keys, scheme, got.Rows(), want.Rows())
						}
						if dropped := jf.Dropped(); dropped != int64(np-filtered.Rows()) || dropped == 0 {
							t.Fatalf("%d build rows, keys %v, scheme %s: filter counts %d dropped rows, %d were",
								nb, keys, scheme, dropped, np-filtered.Rows())
						}
					}
				}
			}
		}
	})
}
