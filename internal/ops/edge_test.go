package ops

import (
	"testing"

	"rapid/internal/plan"
	"rapid/internal/power"
	"rapid/internal/qef"
)

// Edge-condition coverage for the relation-to-relation operators: empty
// inputs, degenerate constant keys, duplicate rows in set operations, and
// the LIMIT 0 / tie boundaries of top-k. All shapes the qgen harness
// generates routinely; pinned here at the operator level.

func emptyRel(names ...string) *Relation {
	cols := make([][]int64, len(names))
	for i := range cols {
		cols[i] = nil
	}
	return intRel(names, cols...)
}

func TestHashJoinEmptyInputs(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		probe := intRel([]string{"pk", "pv"}, []int64{1, 2, 3}, []int64{10, 20, 30})
		build := intRel([]string{"bk", "bv"}, []int64{2, 5}, []int64{200, 500})
		spec := func(typ plan.JoinType) JoinSpec {
			return JoinSpec{
				Type: typ, BuildKeys: []int{0}, ProbeKeys: []int{0},
				BuildPayload: []int{1}, ProbePayload: []int{0, 1},
				Scheme: PartScheme{Rounds: []int{4}},
			}
		}
		// An empty output is known before either side is partitioned: no
		// probe rows, or no build rows for an inner or semi join. Such a join
		// moves no DMS byte; partitioning the other side anyway billed its
		// transfer with no core time to bound the energy.
		cases := []struct {
			name         string
			build, probe *Relation
			typ          plan.JoinType
			rows         int
			free         bool
		}{
			{"inner/empty-build", emptyRel("bk", "bv"), probe, plan.InnerJoin, 0, true},
			{"inner/empty-probe", build, emptyRel("pk", "pv"), plan.InnerJoin, 0, true},
			{"inner/both-empty", emptyRel("bk", "bv"), emptyRel("pk", "pv"), plan.InnerJoin, 0, true},
			{"semi/empty-build", emptyRel("bk", "bv"), probe, plan.SemiJoin, 0, true},
			{"semi/empty-probe", build, emptyRel("pk", "pv"), plan.SemiJoin, 0, true},
			{"anti/empty-build", emptyRel("bk", "bv"), probe, plan.AntiJoin, 3, false},
			{"anti/empty-probe", build, emptyRel("pk", "pv"), plan.AntiJoin, 0, true},
			{"outer/empty-build", emptyRel("bk", "bv"), probe, plan.LeftOuterJoin, 3, false},
			{"outer/empty-probe", build, emptyRel("pk", "pv"), plan.LeftOuterJoin, 0, true},
		}
		for _, tc := range cases {
			sp := spec(tc.typ)
			if tc.typ == plan.SemiJoin || tc.typ == plan.AntiJoin {
				sp.BuildPayload = nil
			}
			before := ctx.Usage()
			out, err := HashJoin(ctx, tc.build, tc.probe, sp)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if out.Rows() != tc.rows {
				t.Fatalf("%s: rows = %d, want %d", tc.name, out.Rows(), tc.rows)
			}
			if u := ctx.Usage().Sub(before); tc.free && (u.Read.Bytes != 0 || u.Write.Bytes != 0) {
				t.Errorf("%s: moved %d + %d DMS bytes for an empty output", tc.name, u.Read.Bytes, u.Write.Bytes)
			}
		}
		// Left-outer against an empty build pads the build payload with 0.
		out, err := HashJoin(ctx, emptyRel("bk", "bv"), probe, spec(plan.LeftOuterJoin))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < out.Rows(); i++ {
			if pad := out.Get(i, 2); pad != 0 {
				t.Fatalf("row %d: padding = %d, want 0", i, pad)
			}
		}
	})
}

func TestRelationOpsOnEmptyInput(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		empty := emptyRel("a", "b")

		sorted, err := SortRelation(ctx, empty, []plan.SortItem{{Col: 0}})
		if err != nil || sorted.Rows() != 0 {
			t.Fatalf("sort empty: rows=%d err=%v", sorted.Rows(), err)
		}
		top, err := TopK(ctx, empty, []plan.SortItem{{Col: 1, Desc: true}}, 5)
		if err != nil || top.Rows() != 0 {
			t.Fatalf("topk empty: rows=%d err=%v", top.Rows(), err)
		}
		win, err := Window(ctx, empty, WindowSpec{Func: plan.RowNumber, PartitionBy: []int{0}, OrderBy: []plan.SortItem{{Col: 1}}})
		if err != nil || win.Rows() != 0 {
			t.Fatalf("window empty: rows=%d err=%v", win.Rows(), err)
		}
		if win.NumCols() != 3 {
			t.Fatalf("window empty: cols=%d, want input+1", win.NumCols())
		}
		grp, err := GroupByPartitioned(ctx, emptyRel("g", "v"), []int{0},
			[]AggSpec{{Kind: AggSum, Arg: 1, Name: "s"}}, colProg(2),
			PartScheme{Rounds: []int{4}}, 64)
		if err != nil || grp.Rows() != 0 {
			t.Fatalf("group empty: rows=%d err=%v", grp.Rows(), err)
		}
		for _, kind := range []plan.SetOpKind{plan.Union, plan.UnionAll, plan.Intersect, plan.Minus} {
			out, err := SetOp(ctx, empty, emptyRel("a", "b"), kind)
			if err != nil || out.Rows() != 0 {
				t.Fatalf("%v on empty: rows=%d err=%v", kind, out.Rows(), err)
			}
		}
		// One side empty: UNION keeps the non-empty side's distinct rows.
		some := intRel([]string{"a", "b"}, []int64{1, 1, 2}, []int64{5, 5, 6})
		u, err := SetOp(ctx, some, emptyRel("a", "b"), plan.Union)
		if err != nil || u.Rows() != 2 {
			t.Fatalf("union with empty: rows=%d err=%v", u.Rows(), err)
		}
		m, err := SetOp(ctx, emptyRel("a", "b"), some, plan.Minus)
		if err != nil || m.Rows() != 0 {
			t.Fatalf("minus from empty: rows=%d err=%v", m.Rows(), err)
		}
	})
}

// TestSetOpEnergyWithinProvisionedBound pins the billing of a set operation
// whose sides differ in size: the DMS pass partitions both sides and bills
// their bytes, so both sides' rows must cost core time too, or the activity
// energy of the (short) makespan exceeds what 5.8 W provisions for it. With
// only A's rows charged, an empty A against a full B billed 10 cycles per
// unit for any |B| — the coordinator-SetOp failure of the distributed qgen
// lane (replay -qgen.seed=25031416).
func TestSetOpEnergyWithinProvisionedBound(t *testing.T) {
	full := make([]int64, 200)
	for i := range full {
		full[i] = int64(i)
	}
	m := power.DefaultEnergyModel()
	for _, kind := range []plan.SetOpKind{plan.Union, plan.Intersect, plan.Minus} {
		for _, sides := range [][2]*Relation{
			{emptyRel("k"), intRel([]string{"k"}, full)},
			{intRel([]string{"k"}, full), emptyRel("k")},
		} {
			ctx := qef.NewContext(qef.ModeDPU)
			if _, err := SetOp(ctx, sides[0], sides[1], kind); err != nil {
				t.Fatal(err)
			}
			u := ctx.Usage()
			sim := u.SimElapsed()
			got := m.Activity(u.Cycles(), u.Read.Bytes, u.Write.Bytes, sim).TotalJoules()
			if bound := m.ProvisionedJoules(sim); got > bound {
				t.Errorf("%v, |A|=%d |B|=%d: energy %g J exceeds provisioned %g J over %g s",
					kind, sides[0].Rows(), sides[1].Rows(), got, bound, sim)
			}
		}
	}
}

func TestSetOpsDuplicateKeys(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		// a = {1,1,2,3,3,3}, b = {2,2,4}: duplicates on both sides must
		// collapse under set semantics and survive under UNION ALL.
		a := intRel([]string{"v"}, []int64{1, 1, 2, 3, 3, 3})
		b := intRel([]string{"v"}, []int64{2, 2, 4})
		cases := []struct {
			kind plan.SetOpKind
			rows int
		}{
			{plan.Union, 4},     // {1,2,3,4}
			{plan.UnionAll, 9},  // bag concat
			{plan.Intersect, 1}, // {2}
			{plan.Minus, 2},     // {1,3}
		}
		for _, tc := range cases {
			out, err := SetOp(ctx, a, b, tc.kind)
			if err != nil {
				t.Fatalf("%v: %v", tc.kind, err)
			}
			if out.Rows() != tc.rows {
				t.Fatalf("%v: rows = %d, want %d", tc.kind, out.Rows(), tc.rows)
			}
		}
		// Identical inputs: INTERSECT and UNION both yield the distinct set,
		// MINUS empties.
		i2, _ := SetOp(ctx, a, a, plan.Intersect)
		m2, _ := SetOp(ctx, a, a, plan.Minus)
		if i2.Rows() != 3 || m2.Rows() != 0 {
			t.Fatalf("self setops: intersect=%d minus=%d", i2.Rows(), m2.Rows())
		}
	})
}

func TestTopKLimitZeroAndTies(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		rel := intRel([]string{"k", "v"},
			[]int64{5, 5, 5, 5, 1, 1, 9},
			[]int64{0, 1, 2, 3, 4, 5, 6})

		zero, err := TopK(ctx, rel, []plan.SortItem{{Col: 0}}, 0)
		if err != nil || zero.Rows() != 0 {
			t.Fatalf("k=0: rows=%d err=%v", zero.Rows(), err)
		}
		if zero.NumCols() != 2 {
			t.Fatalf("k=0: cols=%d", zero.NumCols())
		}

		// k cuts through a tie group (four 5s, cut at 3): exactly k rows
		// come back and they are the smallest keys.
		top, err := TopK(ctx, rel, []plan.SortItem{{Col: 0}}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if top.Rows() != 3 {
			t.Fatalf("k=3 with ties: rows = %d", top.Rows())
		}
		want := []int64{1, 1, 5}
		for i, w := range want {
			if got := top.Get(i, 0); got != w {
				t.Fatalf("row %d key = %d, want %d", i, got, w)
			}
		}

		// k beyond the row count degrades to a full sort.
		all, err := TopK(ctx, rel, []plan.SortItem{{Col: 0, Desc: true}}, 100)
		if err != nil || all.Rows() != rel.Rows() {
			t.Fatalf("k>n: rows=%d err=%v", all.Rows(), err)
		}
		if all.Get(0, 0) != 9 {
			t.Fatalf("k>n: first key = %d, want 9", all.Get(0, 0))
		}

		// Limit is a plain prefix.
		if l := Limit(rel, 0); l.Rows() != 0 {
			t.Fatalf("Limit 0: rows=%d", l.Rows())
		}
		if l := Limit(rel, 2); l.Rows() != 2 {
			t.Fatalf("Limit 2: rows=%d", l.Rows())
		}
		if l := Limit(rel, 100); l.Rows() != rel.Rows() {
			t.Fatalf("Limit>n: rows=%d", l.Rows())
		}
	})
}

func TestGroupByConstantKey(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		// Every row lands in one group: the degenerate skew case for the
		// partitioned strategy (all rows hash to a single partition).
		n := 5000
		rel := intRel([]string{"g", "v"},
			seq(n, func(i int) int64 { return 7 }),
			seq(n, func(i int) int64 { return int64(i) }))
		out, err := GroupByPartitioned(ctx, rel, []int{0},
			[]AggSpec{
				{Kind: AggSum, Arg: 1, Name: "s"},
				{Kind: AggCountStar, Name: "c"},
			}, colProg(2),
			PartScheme{Rounds: []int{16}}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() != 1 {
			t.Fatalf("groups = %d, want 1", out.Rows())
		}
		if k := out.Get(0, 0); k != 7 {
			t.Fatalf("key = %d", k)
		}
		wantSum := int64(n) * int64(n-1) / 2
		if s := out.Get(0, 1); s != wantSum {
			t.Fatalf("sum = %d, want %d", s, wantSum)
		}
		if c := out.Get(0, 2); c != int64(n) {
			t.Fatalf("count = %d, want %d", c, n)
		}
	})
}
