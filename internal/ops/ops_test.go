package ops

import (
	"math/rand"
	"sort"
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

func intRel(names []string, cols ...[]int64) *Relation {
	rc := make([]Col, len(cols))
	data := make([]coltypes.Data, len(cols))
	for i := range cols {
		rc[i] = Col{Name: names[i], Type: coltypes.Int()}
		data[i] = coltypes.Of(cols[i])
	}
	return MustRelation(rc, data)
}

func seq(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func bothModes(t *testing.T, fn func(t *testing.T, ctx *qef.Context)) {
	t.Helper()
	for _, mode := range []qef.Mode{qef.ModeDPU, qef.ModeX86} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { fn(t, qef.NewContext(mode)) })
	}
}

func TestRelationBasics(t *testing.T) {
	r := intRel([]string{"a", "b"}, []int64{1, 2, 3}, []int64{4, 5, 6})
	if r.Rows() != 3 || r.NumCols() != 2 {
		t.Fatal("shape")
	}
	if len(r.Chunks) != 1 || len(r.Chunks[0]) != 2 {
		t.Fatal("Chunks")
	}
	if r.Render(1, 0) != "2" {
		t.Fatal("Render int")
	}
	if _, err := NewRelation([]Col{{Name: "a"}, {Name: "b"}},
		[]coltypes.Data{coltypes.Of([]int64{1}), coltypes.Of([]int64{1, 2})}); err == nil {
		t.Fatal("ragged relation should fail")
	}
}

func TestRenderTypes(t *testing.T) {
	r := MustRelation([]Col{{Name: "d", Type: coltypes.Decimal(2)}, {Name: "dt", Type: coltypes.Date()}, {Name: "b", Type: coltypes.Bool()}},
		[]coltypes.Data{coltypes.Of([]int64{12345}), coltypes.Of([]int64{storage.DateValue(1995, 3, 15).Days()}), coltypes.Of([]int64{1})})
	if r.Render(0, 0) != "123.45" {
		t.Fatalf("decimal render = %s", r.Render(0, 0))
	}
	if r.Render(0, 1) != "1995-03-15" {
		t.Fatalf("date render = %s", r.Render(0, 1))
	}
	if r.Render(0, 2) != "true" {
		t.Fatal("bool render")
	}
}

// colProg is the program whose node i widens tile column i, so an AggSpec's
// Arg names the column it reads.
func colProg(n int) *Program {
	var b ProgramBuilder
	for i := 0; i < n; i++ {
		b.Col(i)
	}
	return b.Program()
}

func TestExprEval(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		cols := []coltypes.Data{
			coltypes.FromInt64s(coltypes.W4, []int64{1, 2, 3}),
			coltypes.FromInt64s(coltypes.W8, []int64{10, 20, 30}),
		}
		tile := &qef.Tile{Cols: cols, N: 3}
		err := ctx.RunSerial(func(tc *qef.TaskCtx) error {
			var b ProgramBuilder
			e := b.ArithConst(plan.Mul, b.Arith(plan.Add, b.Col(0), b.Col(1)), 2)      // (a + b) * 2
			ce := b.Case(&ConstCmp{Col: 0, Op: plan.GE, Val: 2}, b.Col(1), b.Const(0)) // CASE WHEN a >= 2 THEN b ELSE 0 END
			de := b.Arith(plan.Div, b.Col(1), b.Arith(plan.Sub, b.Col(0), b.Col(0)))   // b / (a - a)
			dc := b.ArithConst(plan.Div, b.Col(1), 0)                                  // b / 0
			s := b.Program().Slots(tc)
			got := s.Get(tc, tile, e)
			want := []int64{22, 44, 66}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("expr[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			cg := s.Get(tc, tile, ce)
			if cg[0] != 0 || cg[1] != 20 || cg[2] != 30 {
				t.Errorf("case = %v", cg)
			}
			// Division by a zero column, or by a zero constant, yields 0.
			if dg := s.Get(tc, tile, de); dg[0] != 0 {
				t.Errorf("div0 = %v", dg)
			}
			if dg := s.Get(tc, tile, dc); dg[0] != 0 || dg[2] != 0 {
				t.Errorf("div by constant 0 = %v", dg)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func buildTestTable(t testing.TB, rows int) *storage.Table {
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "k", Type: coltypes.Int()},
		storage.ColumnDef{Name: "v", Type: coltypes.Int()},
		storage.ColumnDef{Name: "g", Type: coltypes.Int()},
	)
	b := storage.NewTableBuilder("t", schema, storage.BuildOptions{ChunkRows: 512})
	for i := 0; i < rows; i++ {
		if err := b.Append([]storage.Value{
			storage.IntValue(int64(i)),
			storage.IntValue(int64(i % 100)),
			storage.IntValue(int64(i % 7)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestScanFilterCollect(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		tbl := buildTestTable(t, 5000)
		snap := tbl.Snapshot(storage.LatestSCN)
		sink := NewCollectSink([]Col{
			{Name: "k", Type: coltypes.Int()},
			{Name: "v", Type: coltypes.Int()},
		})
		chain := func() qef.Operator {
			return &FilterOp{
				Pred: &And{Preds: []Predicate{
					&ConstCmp{Col: 1, Op: plan.LT, Val: 10},
					&ConstCmp{Col: 0, Op: plan.GE, Val: 1000},
				}},
				Next: sink,
			}
		}
		if err := TableScan(ctx, snap, []int{0, 1}, 256, nil, chain); err != nil {
			t.Fatal(err)
		}
		rel := sink.Relation()
		// v = k%100 < 10 and k >= 1000: k in [1000,5000) with k%100<10:
		// 40 hundreds x 10 = 400 rows.
		if rel.Rows() != 400 {
			t.Fatalf("rows = %d, want 400", rel.Rows())
		}
		for i := 0; i < rel.Rows(); i++ {
			k := rel.Get(i, 0)
			v := rel.Get(i, 1)
			if v != k%100 || v >= 10 || k < 1000 {
				t.Fatalf("bad row k=%d v=%d", k, v)
			}
		}
	})
}

func TestScanSeesDeletes(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	tbl := buildTestTable(t, 1000)
	if err := tbl.Tracker().Apply(storage.UpdateUnit{
		SCN:     1,
		Deletes: []int{5, 512}, // row 5 of chunk 0 and row 0 of chunk 1
	}); err != nil {
		t.Fatal(err)
	}
	sink := &CountSink{}
	err := TableScan(ctx, tbl.Snapshot(storage.LatestSCN), []int{0}, 256, nil, func() qef.Operator { return sink })
	if err != nil {
		t.Fatal(err)
	}
	if sink.Rows() != 998 {
		t.Fatalf("rows = %d, want 998", sink.Rows())
	}
}

// TestLiveSelMatchesBitLoop: the word-wise complement of a window of the
// deleted vector equals testing one bit per row, at every alignment of the
// window and for tiles that end mid-word or at the end of the chunk.
func TestLiveSelMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		rows := 1 + rng.Intn(400)
		deleted := bits.NewVector(rows)
		for i, k := 0, rng.Intn(4)*rng.Intn(rows+1)/3; i < k; i++ {
			deleted.Set(rng.Intn(rows))
		}
		base := rng.Intn(rows)
		n := 1 + rng.Intn(rows-base)
		sel := bits.NewVector(n)
		any := liveSel(sel, deleted, base)
		dead := 0
		for i := 0; i < n; i++ {
			if deleted.Test(base + i) {
				dead++
			} else if any && !sel.Test(i) {
				t.Fatalf("trial %d: live row %d+%d not selected", trial, base, i)
			}
		}
		if any != (dead > 0) || any && sel.Count() != n-dead {
			t.Fatalf("trial %d: window [%d,%d) of %d rows: any=%v count=%d, want %d dead", trial, base, base+n, rows, any, sel.Count(), dead)
		}
	}
}

func TestFilterRIDSwitch(t *testing.T) {
	// A highly selective predicate must produce a RID list downstream.
	ctx := qef.NewContext(qef.ModeX86)
	tbl := buildTestTable(t, 4096)
	probe := &reprProbe{}
	chain := func() qef.Operator {
		return &FilterOp{
			Pred: &ConstCmp{Col: 0, Op: plan.EQ, Val: 77},
			Next: probe,
		}
	}
	if err := TableScan(ctx, tbl.Snapshot(storage.LatestSCN), []int{0}, 512, nil, chain); err != nil {
		t.Fatal(err)
	}
	if !probe.sawRIDs {
		t.Fatal("selective filter should emit RID lists")
	}
	if probe.rows != 1 {
		t.Fatalf("rows = %d", probe.rows)
	}
}

type reprProbe struct {
	sawRIDs bool
	sawBV   bool
	rows    int
}

func (p *reprProbe) DMEMSize(int) int         { return 0 }
func (p *reprProbe) Open(*qef.TaskCtx) error  { return nil }
func (p *reprProbe) Close(*qef.TaskCtx) error { return nil }
func (p *reprProbe) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	if t.RIDs != nil {
		p.sawRIDs = true
	}
	if t.Sel != nil {
		p.sawBV = true
	}
	p.rows += t.QualifyingRows()
	return nil
}

func TestMaterializeAndProject(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		tbl := buildTestTable(t, 2000)
		sink := NewCollectSink([]Col{{Name: "expr", Type: coltypes.Int()}})
		chain := func() qef.Operator {
			return &FilterOp{
				Pred: &ConstCmp{Col: 1, Op: plan.LT, Val: 50},
				Next: &MaterializeOp{
					Next: &ProjectOp{
						Cols: []ProjCol{{Keep: -1, Node: 1}},
						Prog: &Program{Nodes: []ExprNode{{Op: ExprCol, Col: 1}, {Op: ExprArithConst, Arith: plan.Mul, L: 0, Val: 3}}},
						Next: sink,
					},
				},
			}
		}
		if err := TableScan(ctx, tbl.Snapshot(storage.LatestSCN), []int{0, 1}, 256, nil, chain); err != nil {
			t.Fatal(err)
		}
		rel := sink.Relation()
		if rel.Rows() != 1000 {
			t.Fatalf("rows = %d", rel.Rows())
		}
		for i := 0; i < rel.Rows(); i++ {
			v := rel.Get(i, 0)
			if v%3 != 0 || v >= 150 {
				t.Fatalf("expr value %d", v)
			}
		}
	})
}

func TestScalarAgg(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		tbl := buildTestTable(t, 3000)
		specs := []AggSpec{
			{Kind: AggSum, Arg: 1},
			{Kind: AggMax, Arg: 0},
			{Kind: AggCountStar},
		}
		merger := NewGroupMerger(0, specs)
		chain := func() qef.Operator {
			return &FilterOp{
				Pred: &ConstCmp{Col: 1, Op: plan.LT, Val: 10},
				Next: &ScalarAggOp{Specs: specs, Prog: colProg(2), Merger: merger},
			}
		}
		if err := TableScan(ctx, tbl.Snapshot(storage.LatestSCN), []int{0, 1}, 256, nil, chain); err != nil {
			t.Fatal(err)
		}
		res := merger.Relation(nil, nil)
		if res.Rows() != 1 {
			t.Fatalf("merged groups = %d, want 1", res.Rows())
		}
		// v<10: 30 full hundreds -> 300 rows, sum v = 30*(0..9)=30*45=1350.
		if got := res.Get(0, 0); got != 1350 {
			t.Fatalf("sum = %d", got)
		}
		if got := res.Get(0, 2); got != 300 {
			t.Fatalf("count = %d", got)
		}
		if got := res.Get(0, 1); got != 2909 {
			t.Fatalf("max = %d", got) // largest k with k%100<10 below 3000
		}
	})
}

func TestGroupByLowNDV(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		tbl := buildTestTable(t, 7000)
		specs := []AggSpec{
			{Kind: AggSum, Arg: 1, Name: "sum_v"},
			{Kind: AggCountStar, Name: "cnt"},
		}
		merger := NewGroupMerger(1, specs)
		chain := func() qef.Operator {
			return &GroupByOp{
				GroupCols: []int{2},
				Specs:     specs,
				Prog:      colProg(2),
				MaxGroups: 16,
				Merger:    merger,
			}
		}
		if err := TableScan(ctx, tbl.Snapshot(storage.LatestSCN), []int{0, 1, 2}, 256, nil, chain); err != nil {
			t.Fatal(err)
		}
		rel := merger.Relation([]Col{{Name: "g", Type: coltypes.Int()}}, nil)
		if rel.Rows() != 7 {
			t.Fatalf("groups = %d", rel.Rows())
		}
		// Verify against reference.
		wantSum := map[int64]int64{}
		wantCnt := map[int64]int64{}
		for i := 0; i < 7000; i++ {
			g := int64(i % 7)
			wantSum[g] += int64(i % 100)
			wantCnt[g]++
		}
		for i := 0; i < rel.Rows(); i++ {
			g := rel.Get(i, 0)
			if rel.Get(i, 1) != wantSum[g] {
				t.Fatalf("group %d sum = %d, want %d", g, rel.Get(i, 1), wantSum[g])
			}
			if rel.Get(i, 2) != wantCnt[g] {
				t.Fatalf("group %d count wrong", g)
			}
		}
	})
}

func TestGroupByOverflowErrors(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	tbl := buildTestTable(t, 1000)
	merger := NewGroupMerger(1, nil)
	chain := func() qef.Operator {
		return &GroupByOp{GroupCols: []int{0}, MaxGroups: 4, Merger: merger}
	}
	err := TableScan(ctx, tbl.Snapshot(storage.LatestSCN), []int{0}, 256, nil, chain)
	if err == nil {
		t.Fatal("expected group overflow error (NDV 1000 vs table 4)")
	}
}

func TestGroupByPartitionedHighNDV(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		n := 20000
		rel := intRel([]string{"g", "v"},
			seq(n, func(i int) int64 { return int64(i % 3000) }), // 3000 groups
			seq(n, func(i int) int64 { return int64(i) }))
		specs := []AggSpec{{Kind: AggSum, Arg: 1, Name: "s"}}
		got, err := GroupByPartitioned(ctx, rel, []int{0}, specs, colProg(2), PartScheme{Rounds: []int{16}}, 512)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != 3000 {
			t.Fatalf("groups = %d", got.Rows())
		}
		want := map[int64]int64{}
		for i := 0; i < n; i++ {
			want[int64(i%3000)] += int64(i)
		}
		for i := 0; i < got.Rows(); i++ {
			g := got.Get(i, 0)
			if got.Get(i, 1) != want[g] {
				t.Fatalf("group %d sum wrong", g)
			}
		}
	})
}

func TestGroupByPartitionedRepartitionsOnBadStats(t *testing.T) {
	// maxGroupsPerPart far below actual forces the runtime re-partitioning.
	ctx := qef.NewContext(qef.ModeX86)
	n := 8000
	rel := intRel([]string{"g"}, seq(n, func(i int) int64 { return int64(i % 4000) }))
	got, err := GroupByPartitioned(ctx, rel, []int{0}, []AggSpec{{Kind: AggCountStar, Name: "c"}}, nil,
		PartScheme{Rounds: []int{4}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 4000 {
		t.Fatalf("groups = %d", got.Rows())
	}
}

func TestPartitionByHashCompleteness(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		n := 10000
		cols := []coltypes.Data{
			coltypes.FromInt64s(coltypes.W4, seq(n, func(i int) int64 { return int64(i) })),
			coltypes.FromInt64s(coltypes.W8, seq(n, func(i int) int64 { return int64(i * 3) })),
		}
		for _, scheme := range []PartScheme{
			{Rounds: []int{8}},
			{Rounds: []int{8, 4}},
			{Rounds: []int{32, 8, 4}},
		} {
			pr, err := PartitionByHash(ctx, [][]coltypes.Data{cols}, []int{0}, scheme, 256)
			if err != nil {
				t.Fatalf("%s: %v", scheme, err)
			}
			if pr.NumPartitions() != scheme.Fanout() {
				t.Fatalf("%s: partitions = %d", scheme, pr.NumPartitions())
			}
			total := 0
			seen := make([]bool, n)
			for p := 0; p < pr.NumPartitions(); p++ {
				rows := pr.Rows(p)
				total += rows
				if len(pr.Hashes[p]) != rows {
					t.Fatalf("%s: hash vector misaligned", scheme)
				}
				for i := 0; i < rows; i++ {
					k := pr.Cols[p][0].Get(i)
					if pr.Cols[p][1].Get(i) != k*3 {
						t.Fatalf("%s: row torn", scheme)
					}
					if seen[k] {
						t.Fatalf("%s: duplicate row %d", scheme, k)
					}
					seen[k] = true
				}
			}
			if total != n {
				t.Fatalf("%s: rows = %d", scheme, total)
			}
		}
	})
}

func TestPartitionSchemeValidate(t *testing.T) {
	if (PartScheme{Rounds: []int{64}}).Validate() == nil {
		t.Fatal("HW round above 32 must fail")
	}
	if (PartScheme{Rounds: []int{8, 3}}).Validate() == nil {
		t.Fatal("non power of two must fail")
	}
	if (PartScheme{Rounds: []int{32, 64}}).Validate() != nil {
		t.Fatal("software rounds above 32 are fine")
	}
	if (PartScheme{Rounds: []int{16, 4}}).Fanout() != 64 {
		t.Fatal("fanout")
	}
	if (PartScheme{Rounds: []int{16, 4}}).String() != "16x4" {
		t.Fatal("string")
	}
}

func refJoin(bk, pk []int64) map[[2]int]bool {
	want := map[[2]int]bool{}
	for p, pv := range pk {
		for b, bv := range bk {
			if pv == bv {
				want[[2]int{b, p}] = true
			}
		}
	}
	return want
}

func TestHashJoinInner(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		rng := rand.New(rand.NewSource(5))
		nb, np := 3000, 9000
		bk := seq(nb, func(i int) int64 { return int64(i) })
		pk := seq(np, func(i int) int64 { return int64(rng.Intn(2 * nb)) })
		build := intRel([]string{"bk", "bv"}, bk, seq(nb, func(i int) int64 { return int64(i * 10) }))
		probe := intRel([]string{"pk", "pv"}, pk, seq(np, func(i int) int64 { return int64(i) }))
		out, err := HashJoin(ctx, build, probe, JoinSpec{
			Type:         plan.InnerJoin,
			BuildKeys:    []int{0},
			ProbeKeys:    []int{0},
			BuildPayload: []int{0, 1},
			ProbePayload: []int{1},
			Scheme:       PartScheme{Rounds: []int{16}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Expected matches: probe keys < nb.
		wantRows := 0
		for _, k := range pk {
			if k < int64(nb) {
				wantRows++
			}
		}
		if out.Rows() != wantRows {
			t.Fatalf("rows = %d, want %d", out.Rows(), wantRows)
		}
		// Validate payload alignment: bv must be 10*bk.
		for i := 0; i < out.Rows(); i++ {
			if out.Get(i, 2) != 10*out.Get(i, 1) {
				t.Fatal("payload misaligned")
			}
		}
	})
}

func TestHashJoinSemiAnti(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	build := intRel([]string{"k"}, []int64{2, 4, 6})
	probe := intRel([]string{"k", "v"}, seq(10, func(i int) int64 { return int64(i) }),
		seq(10, func(i int) int64 { return int64(100 + i) }))
	semi, err := HashJoin(ctx, build, probe, JoinSpec{
		Type: plan.SemiJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		ProbePayload: []int{0, 1}, Scheme: PartScheme{Rounds: []int{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if semi.Rows() != 3 {
		t.Fatalf("semi rows = %d", semi.Rows())
	}
	anti, err := HashJoin(ctx, build, probe, JoinSpec{
		Type: plan.AntiJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		ProbePayload: []int{0, 1}, Scheme: PartScheme{Rounds: []int{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if anti.Rows() != 7 {
		t.Fatalf("anti rows = %d", anti.Rows())
	}
	// Semi + anti partition the probe side.
	got := map[int64]bool{}
	for i := 0; i < semi.Rows(); i++ {
		got[semi.Get(i, 0)] = true
	}
	for i := 0; i < anti.Rows(); i++ {
		k := anti.Get(i, 0)
		if got[k] {
			t.Fatalf("key %d in both semi and anti", k)
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	build := intRel([]string{"k", "bv"}, []int64{1, 3}, []int64{111, 333})
	probe := intRel([]string{"k"}, []int64{1, 2, 3, 4})
	out, err := HashJoin(ctx, build, probe, JoinSpec{
		Type: plan.LeftOuterJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		ProbePayload: []int{0}, BuildPayload: []int{1},
		Scheme: PartScheme{Rounds: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 4 {
		t.Fatalf("rows = %d", out.Rows())
	}
	vals := map[int64]int64{}
	for i := 0; i < 4; i++ {
		vals[out.Get(i, 0)] = out.Get(i, 1)
	}
	if vals[1] != 111 || vals[3] != 333 || vals[2] != 0 || vals[4] != 0 {
		t.Fatalf("outer vals = %v", vals)
	}
}

func TestHashJoinCompositeKey(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	build := intRel([]string{"a", "b", "v"}, []int64{1, 1, 2}, []int64{10, 20, 10}, []int64{7, 8, 9})
	probe := intRel([]string{"a", "b"}, []int64{1, 2, 1}, []int64{20, 10, 99})
	out, err := HashJoin(ctx, build, probe, JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0, 1}, ProbeKeys: []int{0, 1},
		ProbePayload: []int{0, 1}, BuildPayload: []int{2},
		Scheme: PartScheme{Rounds: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 {
		t.Fatalf("rows = %d", out.Rows())
	}
	sum := out.Get(0, 2) + out.Get(1, 2)
	if sum != 8+9 {
		t.Fatalf("matched payloads sum = %d", sum)
	}
}

// Small skew: DMEM capacity below the real partition size must still give
// correct results through the overflow path.
func TestHashJoinSmallSkewOverflow(t *testing.T) {
	ctx := qef.NewContext(qef.ModeDPU)
	nb := 2000
	build := intRel([]string{"k"}, seq(nb, func(i int) int64 { return int64(i) }))
	probe := intRel([]string{"k"}, seq(nb, func(i int) int64 { return int64(i) }))
	out, err := HashJoin(ctx, build, probe, JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		ProbePayload: []int{0},
		Scheme:       PartScheme{Rounds: []int{2}},
		EstPartRows:  nb / 2 / 3, // 3x underestimate: overflow, not re-partition
		SkewFactor:   100,        // disable large-skew handling
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != nb {
		t.Fatalf("rows = %d, want %d", out.Rows(), nb)
	}
}

// Large skew: one partition far above estimate triggers dynamic
// re-partitioning and still joins correctly.
func TestHashJoinLargeSkewRepartition(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	nb := 4000
	build := intRel([]string{"k"}, seq(nb, func(i int) int64 { return int64(i) }))
	probe := intRel([]string{"k"}, seq(nb, func(i int) int64 { return int64(nb - 1 - i) }))
	out, err := HashJoin(ctx, build, probe, JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		ProbePayload: []int{0},
		Scheme:       PartScheme{Rounds: []int{2}},
		EstPartRows:  100, // every partition looks skewed
		SkewFactor:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != nb {
		t.Fatalf("rows = %d, want %d", out.Rows(), nb)
	}
}

// Heavy hitter: all build rows share one key; flow-join spreads the probe
// side and results stay correct.
func TestHashJoinHeavyHitter(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	nb, np := 3000, 6000
	build := intRel([]string{"k", "v"},
		seq(nb, func(i int) int64 { return 42 }),
		seq(nb, func(i int) int64 { return int64(i) }))
	pk := seq(np, func(i int) int64 {
		if i%100 == 0 {
			return 42
		}
		return int64(i + 1000000)
	})
	probe := intRel([]string{"k"}, pk)
	out, err := HashJoin(ctx, build, probe, JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		ProbePayload: []int{0}, BuildPayload: []int{1},
		Scheme:      PartScheme{Rounds: []int{4}},
		EstPartRows: 100,
		SkewFactor:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 60 probe hits x 3000 build rows.
	if out.Rows() != 60*nb {
		t.Fatalf("rows = %d, want %d", out.Rows(), 60*nb)
	}
}

// Property-flavored equivalence: hash join vs nested loop on random data.
func TestHashJoinEquivalenceRandom(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nb, np := rng.Intn(500)+1, rng.Intn(500)+1
		bk := seq(nb, func(int) int64 { return int64(rng.Intn(100)) })
		pk := seq(np, func(int) int64 { return int64(rng.Intn(100)) })
		build := intRel([]string{"k"}, bk)
		probe := intRel([]string{"k"}, pk)
		out, err := HashJoin(ctx, build, probe, JoinSpec{
			Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
			ProbePayload: []int{0}, BuildPayload: []int{0},
			Scheme: PartScheme{Rounds: []int{4, 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() != len(refJoin(bk, pk)) {
			t.Fatalf("trial %d: rows = %d, want %d", trial, out.Rows(), len(refJoin(bk, pk)))
		}
	}
}

func TestSortRelation(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		rng := rand.New(rand.NewSource(9))
		n := 10000
		a := seq(n, func(int) int64 { return int64(rng.Intn(100) - 50) })
		b := seq(n, func(int) int64 { return int64(rng.Intn(1000)) })
		rel := intRel([]string{"a", "b"}, a, b)
		sorted, err := SortRelation(ctx, rel, []plan.SortItem{{Col: 0}, {Col: 1, Desc: true}})
		if err != nil {
			t.Fatal(err)
		}
		if sorted.Rows() != n {
			t.Fatal("row count changed")
		}
		for i := 1; i < n; i++ {
			pa, ca := sorted.Get(i-1, 0), sorted.Get(i, 0)
			if pa > ca {
				t.Fatalf("a not ascending at %d", i)
			}
			if pa == ca {
				if sorted.Get(i-1, 1) < sorted.Get(i, 1) {
					t.Fatalf("b not descending within a at %d", i)
				}
			}
		}
	})
}

func TestTopK(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		rng := rand.New(rand.NewSource(3))
		n := 50000
		v := seq(n, func(int) int64 { return int64(rng.Intn(1000000)) })
		rel := intRel([]string{"v"}, v)
		top, err := TopK(ctx, rel, []plan.SortItem{{Col: 0, Desc: true}}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if top.Rows() != 10 {
			t.Fatalf("rows = %d", top.Rows())
		}
		ref := append([]int64(nil), v...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] > ref[j] })
		for i := 0; i < 10; i++ {
			if top.Get(i, 0) != ref[i] {
				t.Fatalf("top[%d] = %d, want %d", i, top.Get(i, 0), ref[i])
			}
		}
	})
	// k >= n falls back to full sort.
	ctx := qef.NewContext(qef.ModeX86)
	small := intRel([]string{"v"}, []int64{3, 1, 2})
	top, err := TopK(ctx, small, []plan.SortItem{{Col: 0}}, 10)
	if err != nil || top.Rows() != 3 || top.Get(0, 0) != 1 {
		t.Fatalf("small topk: %v", err)
	}
}

func TestWindowFunctions(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	rel := intRel([]string{"g", "o", "v"},
		[]int64{1, 1, 1, 2, 2},
		[]int64{10, 20, 20, 5, 6},
		[]int64{100, 200, 300, 10, 20})
	rn, err := Window(ctx, rel, WindowSpec{Func: plan.RowNumber, PartitionBy: []int{0}, OrderBy: []plan.SortItem{{Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	col := rn.Flat().Col(3)
	if col.Get(0) != 1 || col.Get(1) != 2 || col.Get(2) != 3 || col.Get(3) != 1 || col.Get(4) != 2 {
		t.Fatalf("row_number = %v", coltypes.ToInt64s(col))
	}
	rk, _ := Window(ctx, rel, WindowSpec{Func: plan.Rank, PartitionBy: []int{0}, OrderBy: []plan.SortItem{{Col: 1}}})
	rc := rk.Flat().Col(3)
	if rc.Get(0) != 1 || rc.Get(1) != 2 || rc.Get(2) != 2 {
		t.Fatalf("rank = %v", coltypes.ToInt64s(rc))
	}
	dr, _ := Window(ctx, rel, WindowSpec{Func: plan.DenseRank, PartitionBy: []int{0}, OrderBy: []plan.SortItem{{Col: 1}}})
	dc := dr.Flat().Col(3)
	if dc.Get(2) != 2 {
		t.Fatalf("dense_rank = %v", coltypes.ToInt64s(dc))
	}
	cs, _ := Window(ctx, rel, WindowSpec{Func: plan.CumSum, PartitionBy: []int{0}, OrderBy: []plan.SortItem{{Col: 1}}, ValueCol: 2})
	cc := cs.Flat().Col(3)
	if cc.Get(0) != 100 || cc.Get(2) != 600 || cc.Get(4) != 30 {
		t.Fatalf("cumsum = %v", coltypes.ToInt64s(cc))
	}
	ws, _ := Window(ctx, rel, WindowSpec{Func: plan.WinTotalSum, PartitionBy: []int{0}, ValueCol: 2})
	wc := ws.Flat().Col(3)
	if wc.Get(0) != 600 || wc.Get(4) != 30 {
		t.Fatalf("winsum = %v", coltypes.ToInt64s(wc))
	}
}

func TestSetOps(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		a := intRel([]string{"x"}, []int64{1, 2, 3, 3, 4})
		b := intRel([]string{"x"}, []int64{3, 4, 5})
		check := func(kind plan.SetOpKind, want []int64) {
			t.Helper()
			got, err := SetOp(ctx, a, b, kind)
			if err != nil {
				t.Fatal(err)
			}
			vals := coltypes.ToInt64s(got.Flat().Col(0))
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			if len(vals) != len(want) {
				t.Fatalf("%v: got %v, want %v", kind, vals, want)
			}
			for i := range want {
				if vals[i] != want[i] {
					t.Fatalf("%v: got %v, want %v", kind, vals, want)
				}
			}
		}
		check(plan.Union, []int64{1, 2, 3, 4, 5})
		check(plan.Intersect, []int64{3, 4})
		check(plan.Minus, []int64{1, 2})
		check(plan.UnionAll, []int64{1, 2, 3, 3, 3, 4, 4, 5})
	})
	// Arity mismatch.
	ctx := qef.NewContext(qef.ModeX86)
	if _, err := SetOp(ctx, intRel([]string{"x"}, []int64{1}),
		intRel([]string{"x", "y"}, []int64{1}, []int64{2}), plan.Union); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestLimit(t *testing.T) {
	r := intRel([]string{"x"}, []int64{1, 2, 3, 4})
	if Limit(r, 2).Rows() != 2 || Limit(r, 9).Rows() != 4 {
		t.Fatal("limit")
	}
}
