package qcomp

import (
	"fmt"
	"strings"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// --- fixtures --------------------------------------------------------------

func ordersTable(t testing.TB, rows int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "o_orderkey", Type: coltypes.Int()},
		storage.ColumnDef{Name: "o_custkey", Type: coltypes.Int()},
		storage.ColumnDef{Name: "o_total", Type: coltypes.Decimal(2)},
		storage.ColumnDef{Name: "o_date", Type: coltypes.Date()},
		storage.ColumnDef{Name: "o_status", Type: coltypes.String()},
	)
	b := storage.NewTableBuilder("orders", schema, storage.BuildOptions{ChunkRows: 1024})
	statuses := []string{"O", "F", "P"}
	for i := 0; i < rows; i++ {
		if err := b.Append([]storage.Value{
			storage.IntValue(int64(i)),
			storage.IntValue(int64(i % 200)),
			storage.DecString(fmt.Sprintf("%d.%02d", 10+i%1000, i%100)),
			storage.DateValue(1995, 1+(i%12), 1+(i%28)),
			storage.StrValue(statuses[i%3]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func custTable(t testing.TB, rows int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "c_custkey", Type: coltypes.Int()},
		storage.ColumnDef{Name: "c_name", Type: coltypes.String()},
		storage.ColumnDef{Name: "c_nation", Type: coltypes.Int()},
	)
	b := storage.NewTableBuilder("customer", schema, storage.BuildOptions{ChunkRows: 512})
	for i := 0; i < rows; i++ {
		if err := b.Append([]storage.Value{
			storage.IntValue(int64(i)),
			storage.StrValue(fmt.Sprintf("Customer#%03d", i)),
			storage.IntValue(int64(i % 25)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func run(t *testing.T, ctx *qef.Context, n plan.Node) *ops.Relation {
	t.Helper()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// hasSpan reports whether the compiled plan has an operator span of that
// exact name — how plan-shape tests read the physical plan.
func hasSpan(c *Compiled, name string) bool {
	for _, d := range c.SpanDefs() {
		if d.Name == name {
			return true
		}
	}
	return false
}

func colRefOf(n plan.Node, name string) *plan.ColRef {
	for i, f := range n.Schema() {
		if f.Name == name {
			return &plan.ColRef{Idx: i, Name: name, T: f.Type, Dict: f.Dict}
		}
	}
	panic("no column " + name)
}

// --- partition scheme optimization (§5.3) ----------------------------------

func TestRequiredPartitions(t *testing.T) {
	cfg := dpu.DefaultConfig()
	// Small data: still at least one partition per core.
	if got := RequiredPartitions(1000, cfg); got != 32 {
		t.Fatalf("small data partitions = %d, want 32", got)
	}
	// 16 MiB over a 16 KiB budget = 1024 partitions.
	if got := RequiredPartitions(16<<20, cfg); got != 1024 {
		t.Fatalf("16MiB partitions = %d, want 1024", got)
	}
}

func TestOptimizeSchemeHeuristics(t *testing.T) {
	// Target <= 32: one hardware round.
	s := OptimizeScheme(32, 1<<20)
	if len(s.Rounds) != 1 || s.Rounds[0] != 32 {
		t.Fatalf("32-way scheme = %s", s)
	}
	// Target 64: hardware cannot do it alone; expect two rounds.
	s = OptimizeScheme(64, 1<<24)
	if s.Fanout() < 64 || len(s.Rounds) < 2 {
		t.Fatalf("64-way scheme = %s", s)
	}
	if s.Validate() != nil {
		t.Fatalf("scheme %s invalid", s)
	}
	// Target 1024 = 32x32: two rounds, both within their limits.
	s = OptimizeScheme(1024, 1<<28)
	if s.Fanout() < 1024 {
		t.Fatalf("1024-way scheme = %s (fanout %d)", s, s.Fanout())
	}
	for i, r := range s.Rounds {
		if i == 0 && r > 32 {
			t.Fatalf("hardware round %d exceeds 32", r)
		}
	}
	// Symmetry preference: for 64 partitions after the HW round the paper
	// prefers 8x8 over 16x4 among equal-cost candidates.
	if sym := symmetryScore([]int{8, 8}); sym != 0 {
		t.Fatal("8x8 should be perfectly symmetric")
	}
	if symmetryScore([]int{16, 4}) <= symmetryScore([]int{8, 8}) {
		t.Fatal("16x4 should score worse than 8x8")
	}
}

func TestSchemeCostMonotonicity(t *testing.T) {
	data := int64(1 << 28)
	one := SchemeCost(ops.PartScheme{Rounds: []int{32}}, data)
	two := SchemeCost(ops.PartScheme{Rounds: []int{32, 32}}, data)
	if two <= one {
		t.Fatal("more rounds must cost more")
	}
	// Beyond the 64-way plateau software rounds degrade.
	cheap := SchemeCost(ops.PartScheme{Rounds: []int{32, 64}}, data)
	costly := SchemeCost(ops.PartScheme{Rounds: []int{32, 256}}, data)
	if costly <= cheap {
		t.Fatal("256-way software round should cost more than 64-way")
	}
}

// --- task formation (Fig 4) -------------------------------------------------

// TestTaskFormationFig4 reproduces the paper's Figure 4 example: an
// aggregation over 1M rows of 4-byte columns with 25% selectivity. Grouping
// scan+filter+aggregate into one task materializes far less to DRAM than
// one-operator-per-task, and the optimizer must choose the grouped
// formation.
func TestTaskFormationFig4(t *testing.T) {
	mkOps := func() []OpReq {
		return []OpReq{
			{
				DMEMSize:       func(rows int) int { return 2 * rows * 8 }, // 2 cols x 4B, double buffered
				OutBytesPerRow: 8,
				Selectivity:    1,
			},
			{
				DMEMSize:       (&ops.FilterOp{}).DMEMSize,
				OutBytesPerRow: 8,
				Selectivity:    0.25,
			},
			{
				DMEMSize:       func(rows int) int { return rows*8 + 64 },
				OutBytesPerRow: 16,
				Selectivity:    1e-6,
			},
		}
	}
	f, err := FormTasks(mkOps(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Tasks) != 1 {
		t.Fatalf("optimizer chose %d tasks, want 1 (grouped)", len(f.Tasks))
	}
	if f.Tasks[0].TileRows < qef.MinTileRows {
		t.Fatalf("tile rows = %d", f.Tasks[0].TileRows)
	}
	// Compare against the singles formation explicitly: grouped must
	// materialize less.
	singles, ok := packSingles(mkOps(), 28*1024, 1_000_000)
	if !ok {
		t.Fatal("singles should fit")
	}
	if f.MaterializedBytes >= singles.MaterializedBytes {
		t.Fatalf("grouped materializes %d, singles %d", f.MaterializedBytes, singles.MaterializedBytes)
	}
	if f.Cost >= singles.Cost {
		t.Fatal("grouped formation should be cheaper")
	}
}

func TestChooseTileRowsRespectsDMEM(t *testing.T) {
	// A hungry operator set: tile rows shrink to fit.
	hungry := []OpReq{{
		DMEMSize: func(rows int) int { return rows * 400 },
	}}
	rows := ChooseTileRows(hungry)
	if rows*400 > 28*1024 {
		t.Fatalf("tile rows %d overflow DMEM", rows)
	}
	if rows < qef.MinTileRows {
		t.Fatalf("tile rows %d below hardware minimum", rows)
	}
	// A light pipeline gets large tiles.
	light := []OpReq{{DMEMSize: func(rows int) int { return rows * 4 }}}
	if ChooseTileRows(light) < 1024 {
		t.Fatal("light pipeline should get large tiles")
	}
}

// --- end-to-end compilation -------------------------------------------------

func TestCompileFilterProject(t *testing.T) {
	tbl := ordersTable(t, 10000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	date0 := storage.DateValue(1995, 6, 1).Days()
	f := &plan.Filter{
		Input: scan,
		Pred: &plan.AndPred{Preds: []plan.Pred{
			&plan.Cmp{Op: plan.GE, L: colRefOf(scan, "o_date"), R: &plan.Const{T: coltypes.Date(), Val: date0}},
			&plan.Cmp{Op: plan.EQ, L: colRefOf(scan, "o_status"), R: &plan.Const{T: coltypes.String(), Str: "O"}},
		}},
	}
	total := colRefOf(scan, "o_total")
	doubled, err := plan.NewArith(plan.Mul, total, &plan.Const{T: coltypes.Decimal(0), Val: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Project{
		Input: f,
		Exprs: []plan.Expr{colRefOf(scan, "o_orderkey"), doubled},
		Names: []string{"key", "double_total"},
	}
	for _, mode := range []qef.Mode{qef.ModeDPU, qef.ModeX86} {
		ctx := qef.NewContext(mode)
		rel := run(t, ctx, p)
		if rel.Rows() == 0 {
			t.Fatal("no rows")
		}
		// Validate against direct evaluation.
		want := 0
		for i := 0; i < 10000; i++ {
			d := storage.DateValue(1995, 1+(i%12), 1+(i%28)).Days()
			if d >= date0 && i%3 == 0 {
				want++
			}
		}
		if rel.Rows() != want {
			t.Fatalf("%v: rows = %d, want %d", mode, rel.Rows(), want)
		}
		if rel.Cols[1].Name != "double_total" {
			t.Fatalf("col name %s", rel.Cols[1].Name)
		}
		// double_total has scale 2 (0-scale const times scale-2 column).
		if rel.Cols[1].Type.Scale != 2 {
			t.Fatalf("scale = %d", rel.Cols[1].Type.Scale)
		}
	}
}

func TestCompileScalarAggWithAvg(t *testing.T) {
	tbl := ordersTable(t, 5000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	g := &plan.GroupBy{
		Input: scan,
		Aggs: []plan.AggExpr{
			{Kind: plan.Sum, Arg: colRefOf(scan, "o_custkey"), Name: "s"},
			{Kind: plan.Avg, Arg: colRefOf(scan, "o_custkey"), Name: "a"},
			{Kind: plan.CountStar, Name: "n"},
		},
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, g)
	if rel.Rows() != 1 {
		t.Fatalf("rows = %d", rel.Rows())
	}
	var wantSum int64
	for i := 0; i < 5000; i++ {
		wantSum += int64(i % 200)
	}
	if got := rel.Get(0, 0); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	// AVG carries two extra scale digits.
	wantAvg := wantSum * 100 / 5000
	if got := rel.Get(0, 1); got != wantAvg {
		t.Fatalf("avg = %d, want %d", got, wantAvg)
	}
	if rel.Cols[1].Type.Scale != 2 {
		t.Fatalf("avg scale = %d", rel.Cols[1].Type.Scale)
	}
	if got := rel.Get(0, 2); got != 5000 {
		t.Fatalf("count = %d", got)
	}
}

func TestCompileGroupByStrategies(t *testing.T) {
	tbl := ordersTable(t, 20000)
	// Low NDV: group by o_status (3 groups) -> in-pipeline strategy.
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	low := &plan.GroupBy{
		Input: scan,
		Keys:  []plan.Expr{colRefOf(scan, "o_status")},
		Aggs:  []plan.AggExpr{{Kind: plan.CountStar, Name: "n"}},
	}
	cLow, err := Compile(low)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(cLow, "GroupBy") || hasSpan(cLow, "GroupByPartitioned") {
		t.Fatalf("low NDV should stay in-pipeline: %v", cLow.SpanDefs())
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel, err := cLow.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows() != 3 {
		t.Fatalf("groups = %d", rel.Rows())
	}
	var total int64
	for i := 0; i < 3; i++ {
		total += rel.Get(i, 1)
	}
	if total != 20000 {
		t.Fatalf("counts sum to %d", total)
	}
	// High NDV: group by o_orderkey (20000 groups) -> partitioned strategy.
	high := &plan.GroupBy{
		Input: scan,
		Keys:  []plan.Expr{colRefOf(scan, "o_orderkey")},
		Aggs:  []plan.AggExpr{{Kind: plan.CountStar, Name: "n"}},
	}
	cHigh, err := Compile(high)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(cHigh, "GroupByPartitioned") {
		t.Fatalf("high NDV should partition: %v", cHigh.SpanDefs())
	}
	rel2, err := cHigh.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Rows() != 20000 {
		t.Fatalf("groups = %d", rel2.Rows())
	}
}

func TestCompileJoin(t *testing.T) {
	orders := ordersTable(t, 8000)
	cust := custTable(t, 200)
	so := plan.NewScan(orders, storage.LatestSCN, nil)
	sc := plan.NewScan(cust, storage.LatestSCN, nil)
	// o_custkey is column 1 of orders; c_custkey is column 0 of customer.
	j := &plan.Join{Type: plan.InnerJoin, Left: so, Right: sc, LeftKeys: []int{1}, RightKeys: []int{0}}
	for _, mode := range []qef.Mode{qef.ModeDPU, qef.ModeX86} {
		ctx := qef.NewContext(mode)
		rel := run(t, ctx, j)
		// Every order matches exactly one customer (custkey 0..199).
		if rel.Rows() != 8000 {
			t.Fatalf("%v: rows = %d", mode, rel.Rows())
		}
		// Output schema: orders cols then customer cols.
		if rel.Cols[0].Name != "o_orderkey" || rel.Cols[5].Name != "c_custkey" {
			t.Fatalf("schema: %v / %v", rel.Cols[0].Name, rel.Cols[5].Name)
		}
		// Join correctness: o_custkey == c_custkey on every row.
		for i := 0; i < rel.Rows(); i++ {
			if rel.Get(i, 1) != rel.Get(i, 5) {
				t.Fatal("key mismatch in join output")
			}
		}
		// String payload survives: c_name renders through the dict.
		if !strings.HasPrefix(rel.Render(0, 6), "Customer#") {
			t.Fatalf("c_name render = %s", rel.Render(0, 6))
		}
	}
}

func TestCompileTopKAndSort(t *testing.T) {
	tbl := ordersTable(t, 5000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	topk := &plan.Limit{
		Input: &plan.Sort{Input: scan, Keys: []plan.SortItem{{Col: 2, Desc: true}}},
		K:     5,
	}
	c, err := Compile(topk)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(c, "TopK") {
		t.Fatalf("Sort+Limit should fuse to TopK: %v", c.SpanDefs())
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel, err := c.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows() != 5 {
		t.Fatalf("rows = %d", rel.Rows())
	}
	for i := 1; i < 5; i++ {
		if rel.Get(i-1, 2) < rel.Get(i, 2) {
			t.Fatal("not descending")
		}
	}
}

func TestCompileSortByString(t *testing.T) {
	// ORDER BY a dictionary column must sort lexicographically even though
	// codes are insertion-ordered.
	cust := custTable(t, 50)
	scan := plan.NewScan(cust, storage.LatestSCN, nil)
	topk := &plan.Limit{
		Input: &plan.Sort{Input: scan, Keys: []plan.SortItem{{Col: 1, Desc: false}}},
		K:     3,
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, topk)
	if rel.Render(0, 1) != "Customer#000" || rel.Render(2, 1) != "Customer#002" {
		t.Fatalf("string order: %s, %s", rel.Render(0, 1), rel.Render(2, 1))
	}
}

func TestCompileLike(t *testing.T) {
	cust := custTable(t, 300)
	scan := plan.NewScan(cust, storage.LatestSCN, nil)
	f := &plan.Filter{
		Input: scan,
		Pred: &plan.LikePred{
			E: colRefOf(scan, "c_name"), Kind: plan.LikePrefix, Pattern: "Customer#01",
		},
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, f)
	// Customer#010 .. Customer#019 and Customer#01x doesn't exist beyond.
	if rel.Rows() != 10 {
		t.Fatalf("rows = %d", rel.Rows())
	}
}

func TestCompileBetweenAndIn(t *testing.T) {
	tbl := ordersTable(t, 3000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	f := &plan.Filter{
		Input: scan,
		Pred: &plan.AndPred{Preds: []plan.Pred{
			&plan.BetweenPred{
				E:  colRefOf(scan, "o_custkey"),
				Lo: &plan.Const{T: coltypes.Int(), Val: 10},
				Hi: &plan.Const{T: coltypes.Int(), Val: 19},
			},
			&plan.InPred{
				E: colRefOf(scan, "o_status"),
				List: []*plan.Const{
					{T: coltypes.String(), Str: "O"},
					{T: coltypes.String(), Str: "F"},
				},
			},
		}},
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, f)
	want := 0
	for i := 0; i < 3000; i++ {
		if k := i % 200; k >= 10 && k <= 19 && i%3 != 2 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
}

func TestCompileSemiJoin(t *testing.T) {
	orders := ordersTable(t, 2000)
	cust := custTable(t, 50) // custkeys 0..49; orders have 0..199
	so := plan.NewScan(orders, storage.LatestSCN, nil)
	sc := plan.NewScan(cust, storage.LatestSCN, nil)
	semi := &plan.Join{Type: plan.SemiJoin, Left: so, Right: sc, LeftKeys: []int{1}, RightKeys: []int{0}}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, semi)
	want := 0
	for i := 0; i < 2000; i++ {
		if i%200 < 50 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("semi rows = %d, want %d", rel.Rows(), want)
	}
	if len(rel.Cols) != 5 {
		t.Fatalf("semi join must keep only left columns, got %d", len(rel.Cols))
	}
}

func TestRescaleConstInPredicate(t *testing.T) {
	// o_total is DECIMAL(2); compare against 500 (scale 0): the constant
	// must rescale to 50000.
	tbl := ordersTable(t, 1000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	f := &plan.Filter{
		Input: scan,
		Pred: &plan.Cmp{Op: plan.GE, L: colRefOf(scan, "o_total"),
			R: &plan.Const{T: coltypes.Decimal(0), Val: 500}},
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, f)
	want := 0
	for i := 0; i < 1000; i++ {
		cents := int64(10+i%1000)*100 + int64(i%100)
		if cents >= 50000 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
}
