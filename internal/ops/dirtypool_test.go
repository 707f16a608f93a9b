package ops

import (
	"slices"
	"testing"

	"rapid/internal/mem"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// poolExec runs a batch serially, in index order, unit i on virtual core
// i mod Workers(), every task context bound to one pool — as a scheduler
// worker binds its own pool before each unit.
type poolExec struct{ pool *mem.TilePool }

func (e poolExec) RunUnits(c *qef.Context, units []qef.WorkUnit) error {
	tcs := make([]*qef.TaskCtx, c.Workers())
	for i, u := range units {
		v := i % len(tcs)
		if tcs[v] == nil {
			tcs[v] = c.NewTaskCtx(v)
		}
		tcs[v].BindPool(e.pool)
		if err := c.RunUnit(tcs[v], u); err != nil {
			return err
		}
	}
	return nil
}

// dirtyPool returns a pool whose storage is grown and then filled with a
// non-zero pattern, rolled back: what a work unit finds after another ran on
// the same pool.
func dirtyPool() *mem.TilePool {
	const words = 1 << 18
	p := mem.NewTilePool()
	p.I64(words / 2) // grows the region to words
	p.Headers(1 << 12)
	p.RowHeaders(1 << 12)
	for i := 0; i < 64; i++ {
		p.BV(64)
	}
	p.Reset()
	fill := p.I64(words)
	for i := range fill {
		fill[i] = -0x0BAD_0BAD_0BAD
	}
	p.Reset()
	return p
}

// sortedRows returns r's rows, sorted: its bag of rows.
func sortedRows(r *Relation) [][]int64 {
	rows := make([][]int64, r.Rows())
	for i := range rows {
		rows[i] = make([]int64, r.NumCols())
		for c := range rows[i] {
			rows[i][c] = r.Get(i, c)
		}
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}

// TestOperatorsOnDirtyPool: pool scratch is handed out un-zeroed, so an
// operator that reads an element before writing it answers from whatever the
// previous unit left there. The partitioned group-by (whose group table's
// slots are read as empty when 0) and the hash join, run on a pool full of
// garbage, return the same bag of rows as on a fresh pool — and the run grew
// the pool by nothing, so every take landed on the garbage.
func TestOperatorsOnDirtyPool(t *testing.T) {
	const n = 20_000
	groups := intRel([]string{"g", "h", "v"},
		seq(n, func(i int) int64 { return int64(i % 3000) }),
		seq(n, func(i int) int64 { return int64(i % 7) }),
		seq(n, func(i int) int64 { return int64(i) - 5000 }))
	specs := []AggSpec{
		{Kind: AggSum, Expr: &ColRef{Idx: 2}, Name: "s"},
		{Kind: AggMin, Expr: &ColRef{Idx: 2}, Name: "mn"},
		{Kind: AggCountStar, Name: "c"},
	}
	build := intRel([]string{"bk", "bv"},
		seq(n/4, func(i int) int64 { return int64(2 * i) }),
		seq(n/4, func(i int) int64 { return int64(i) + 7 }))
	probe := intRel([]string{"pk", "pv"},
		seq(n, func(i int) int64 { return int64(i) }),
		seq(n, func(i int) int64 { return int64(i) * 3 }))
	join := func(jt plan.JoinType) func(ctx *qef.Context) (*Relation, error) {
		return func(ctx *qef.Context) (*Relation, error) {
			return HashJoin(ctx, build, probe, JoinSpec{
				Type: jt, BuildKeys: []int{0}, ProbeKeys: []int{0},
				BuildPayload: []int{1}, ProbePayload: []int{0, 1}, Scheme: PartScheme{Rounds: []int{8}},
			})
		}
	}
	runs := []struct {
		name string
		run  func(ctx *qef.Context) (*Relation, error)
	}{
		{"GroupByPartitioned", func(ctx *qef.Context) (*Relation, error) {
			return GroupByPartitioned(ctx, groups, []int{0, 1}, specs, PartScheme{Rounds: []int{16}}, 512)
		}},
		{"GroupByPartitioned/resplit", func(ctx *qef.Context) (*Relation, error) {
			return GroupByPartitioned(ctx, groups, []int{0}, specs, PartScheme{Rounds: []int{4}}, 64)
		}},
		{"HashJoin/inner", join(plan.InnerJoin)},
		{"HashJoin/leftouter", join(plan.LeftOuterJoin)},
	}
	for _, r := range runs {
		for _, mode := range []qef.Mode{qef.ModeDPU, qef.ModeX86} {
			t.Run(r.name+"/"+mode.String(), func(t *testing.T) {
				on := func(p *mem.TilePool) [][]int64 {
					ctx := qef.NewContext(mode)
					ctx.Exec = poolExec{p}
					out, err := r.run(ctx)
					if err != nil {
						t.Fatal(err)
					}
					return sortedRows(out)
				}
				want := on(mem.NewTilePool())
				dirty := dirtyPool()
				grows := dirty.Grows()
				got := on(dirty)
				if g := dirty.Grows() - grows; g != 0 {
					t.Fatalf("the run grew the dirty pool %d times: takes outside the garbage", g)
				}
				if len(want) == 0 {
					t.Fatal("empty result")
				}
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%d rows on a dirty pool differ from the %d on a fresh one", len(got), len(want))
				}
			})
		}
	}
}
