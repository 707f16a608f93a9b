package qcomp

import (
	"fmt"
	"slices"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// Direct compiler coverage: every expression/predicate shape through
// compileExpr/compilePred, and every physical node through execute.

func TestCompileArithmeticShapes(t *testing.T) {
	tbl := ordersTable(t, 2000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	total := colRefOf(scan, "o_total")     // DECIMAL(2)
	custkey := colRefOf(scan, "o_custkey") // INT

	mk := func(op plan.ArithOp, l, r plan.Expr) plan.Expr {
		e, err := plan.NewArith(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Mixed-scale add (int + decimal), subtract, multiply, divide, and a
	// CASE over a comparison.
	caseE, err := plan.NewCase(
		&plan.Cmp{Op: plan.GT, L: total, R: &plan.Const{T: coltypes.Decimal(0), Val: 500}},
		total,
		&plan.Const{T: coltypes.Decimal(2), Val: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Project{
		Input: scan,
		Exprs: []plan.Expr{
			mk(plan.Add, custkey, total),
			mk(plan.Sub, total, custkey),
			mk(plan.Mul, total, total),
			mk(plan.Div, total, mk(plan.Add, custkey, &plan.Const{T: coltypes.Int(), Val: 1})),
			caseE,
		},
		Names: []string{"a", "s", "m", "d", "c"},
	}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, p)
	if rel.Rows() != 2000 {
		t.Fatalf("rows = %d", rel.Rows())
	}
	// Spot-check the scale bookkeeping on row 0: o_custkey=0, o_total=10.00.
	if got := rel.Get(0, 0); got != 1000 { // 0 + 10.00 at scale 2
		t.Fatalf("add = %d", got)
	}
	if got := rel.Get(0, 2); got != 1000*1000 { // 10.00^2 at scale 4
		t.Fatalf("mul = %d", got)
	}
	if rel.Cols[2].Type.Scale != 4 || rel.Cols[3].Type.Scale != plan.DivScale {
		t.Fatal("scale metadata wrong")
	}
	// Div: 10.00 / 1 at DivScale = 100000.
	if got := rel.Get(0, 3); got != 100000 {
		t.Fatalf("div = %d", got)
	}
	// Case: 10.00 <= 500 -> 0.
	if got := rel.Get(0, 4); got != 0 {
		t.Fatalf("case = %d", got)
	}

	// The compiled program: constants fold, scale-alignment constants
	// included, with the runtime kernels' integer semantics; a constant
	// operand of + and * moves right, onto the *Const kernels; a zero
	// divisor keeps the vector path; and every repeated subexpression is
	// one node.
	k := func(typ coltypes.Type, v int64) *plan.Const { return &plan.Const{T: typ, Val: v} }
	one, oneHalf := k(coltypes.Int(), 1), k(coltypes.Decimal(1), 15)
	oneMinus := mk(plan.Sub, one, total)
	disc := mk(plan.Mul, total, oneMinus)
	shapeCase, err := plan.NewCase(&plan.Cmp{Op: plan.GT, L: total, R: k(coltypes.Int(), 500)}, disc, oneMinus)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		e    plan.Expr
		want string
		row1 int64 // o_custkey=1, o_total=11.01
	}{
		{oneMinus, "(100 - col2)", 100 - 1101},
		{disc, "(col2 * (100 - col2))", 1101 * (100 - 1101)},
		{mk(plan.Mul, total, oneHalf), "(col2 * #15)", 1101 * 15},
		{mk(plan.Div, custkey, k(coltypes.Int(), 3)), "((col1 * #10000) / #3)", 10000 / 3},
		{mk(plan.Mul, mk(plan.Add, one, k(coltypes.Int(), 2)), custkey), "(col1 * #3)", 3},
		{mk(plan.Div, mk(plan.Sub, k(coltypes.Int(), 0), one), k(coltypes.Int(), 3)), "-3333", -10000 / 3},
		{mk(plan.Div, custkey, k(coltypes.Int(), 0)), "((col1 * #10000) / 0)", 0},
		{mk(plan.Add, one, total), "(col2 + #100)", 1101 + 100},
		{shapeCase, "case((col2 * (100 - col2)), ((100 - col2) * #100))", (100 - 1101) * 100},
		{disc, "(col2 * (100 - col2))", 1101 * (100 - 1101)},
	}
	sp := &plan.Project{Input: scan}
	for _, sh := range shapes {
		sp.Exprs = append(sp.Exprs, sh.e)
	}
	c, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	step := c.root.(*pipelineNode).steps[0]
	for i, sh := range shapes {
		if got := progString(step.prog, step.proj[i].Node); step.proj[i].Keep >= 0 || got != sh.want {
			t.Errorf("output %d (%s) compiled to %s, want %s", i, sh.e, got, sh.want)
		}
	}
	if step.proj[1].Node != step.proj[len(shapes)-1].Node {
		t.Error("a repeated expression compiled to two nodes")
	}
	if n := len(step.prog.Nodes); n != 15 {
		t.Errorf("program has %d nodes, want the 15 distinct ones", n)
	}
	rel = run(t, ctx, sp)
	for i, sh := range shapes {
		if got := rel.Get(1, i); got != sh.row1 {
			t.Errorf("output %d (%s) = %d on row 1, want %d", i, sh.e, got, sh.row1)
		}
	}
}

// progString renders node i of a program: a constant operand of a *Const
// kernel prints as #v, a materialized constant as v.
func progString(p *ops.Program, i int) string {
	n := p.Nodes[i]
	switch n.Op {
	case ops.ExprCol:
		return fmt.Sprintf("col%d", n.Col)
	case ops.ExprConst:
		return fmt.Sprint(n.Val)
	case ops.ExprArith:
		return fmt.Sprintf("(%s %s %s)", progString(p, n.L), n.Arith, progString(p, n.R))
	case ops.ExprArithConst:
		return fmt.Sprintf("(%s %s #%d)", progString(p, n.L), n.Arith, n.Val)
	}
	return fmt.Sprintf("case(%s, %s)", progString(p, n.L), progString(p, n.R))
}

func TestCompileStringPredicates(t *testing.T) {
	cust := custTable(t, 100)
	scan := plan.NewScan(cust, storage.LatestSCN, nil)
	name := colRefOf(scan, "c_name")
	ctx := qef.NewContext(qef.ModeX86)

	// EQ, NE, range comparison, LIKE variants, IN.
	check := func(pred plan.Pred, want int) {
		t.Helper()
		rel := run(t, ctx, &plan.Filter{Input: scan, Pred: pred})
		if rel.Rows() != want {
			t.Fatalf("%s: rows = %d, want %d", pred, rel.Rows(), want)
		}
	}
	check(&plan.Cmp{Op: plan.EQ, L: name, R: &plan.Const{T: coltypes.String(), Str: "Customer#042"}}, 1)
	check(&plan.Cmp{Op: plan.EQ, L: name, R: &plan.Const{T: coltypes.String(), Str: "nope"}}, 0)
	check(&plan.Cmp{Op: plan.NE, L: name, R: &plan.Const{T: coltypes.String(), Str: "Customer#042"}}, 99)
	check(&plan.Cmp{Op: plan.LT, L: name, R: &plan.Const{T: coltypes.String(), Str: "Customer#010"}}, 10)
	check(&plan.Cmp{Op: plan.GE, L: name, R: &plan.Const{T: coltypes.String(), Str: "Customer#090"}}, 10)
	check(&plan.LikePred{E: name, Kind: plan.LikePrefix, Pattern: "Customer#09"}, 10)
	check(&plan.LikePred{E: name, Kind: plan.LikeSuffix, Pattern: "7"}, 10)
	check(&plan.LikePred{E: name, Kind: plan.LikeContains, Pattern: "#05"}, 10)
	check(&plan.LikePred{E: name, Kind: plan.LikeExact, Pattern: "Customer#007"}, 1)
	check(&plan.LikePred{E: name, Kind: plan.LikePrefix, Pattern: "Customer#00", Negate: true}, 90)
	check(&plan.InPred{E: name, List: []*plan.Const{
		{T: coltypes.String(), Str: "Customer#001"},
		{T: coltypes.String(), Str: "Customer#002"},
		{T: coltypes.String(), Str: "missing"},
	}}, 2)
	// Constant-on-the-left normalization: 'Customer#095' > c_name means
	// c_name < 'Customer#095', i.e. names 000..094.
	check(&plan.Cmp{Op: plan.GT, L: &plan.Const{T: coltypes.String(), Str: "Customer#095"}, R: name}, 95)
}

func TestCompileNumericIn(t *testing.T) {
	tbl := ordersTable(t, 1000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	ck := colRefOf(scan, "o_custkey")
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, &plan.Filter{Input: scan, Pred: &plan.InPred{E: ck, List: []*plan.Const{
		{T: coltypes.Int(), Val: 3},
		{T: coltypes.Int(), Val: 7},
	}}})
	want := 0
	for i := 0; i < 1000; i++ {
		if k := i % 200; k == 3 || k == 7 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
	// Empty effective list matches nothing.
	rel2 := run(t, ctx, &plan.Filter{Input: scan, Pred: &plan.InPred{E: ck, List: nil}})
	if rel2.Rows() != 0 {
		t.Fatal("empty IN should match nothing")
	}
}

func TestCompileSetOpAndWindowNodes(t *testing.T) {
	tbl := ordersTable(t, 500)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	keyOnly := &plan.Project{Input: scan, Exprs: []plan.Expr{colRefOf(scan, "o_custkey")}, Names: []string{"k"}}
	u := &plan.SetOp{Kind: plan.Union, Left: keyOnly, Right: keyOnly}
	ctx := qef.NewContext(qef.ModeX86)
	rel := run(t, ctx, u)
	if rel.Rows() != 200 { // distinct custkeys
		t.Fatalf("union rows = %d", rel.Rows())
	}
	w := &plan.Window{Input: keyOnly, Func: plan.RowNumber, PartitionBy: []int{0}, Name: "rn"}
	relW := run(t, ctx, w)
	if relW.NumCols() != 2 || relW.Rows() != 500 {
		t.Fatalf("window shape %dx%d", relW.Rows(), relW.NumCols())
	}
	// The span tree names every node type.
	c, err := Compile(&plan.Limit{Input: &plan.Sort{Input: u, Keys: []plan.SortItem{{Col: 0}}}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(c, "TopK") {
		t.Fatalf("no TopK span: %v", c.SpanDefs())
	}
	cw, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(cw, "Window") {
		t.Fatalf("no Window span: %v", cw.SpanDefs())
	}
	cu, err := Compile(u)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(cu, "SetOp") {
		t.Fatalf("no SetOp span: %v", cu.SpanDefs())
	}
}

func TestCompileErrors(t *testing.T) {
	tbl := ordersTable(t, 100)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	status := colRefOf(scan, "o_status")
	bad := []plan.Node{
		// String constant in arithmetic context.
		&plan.Project{Input: scan, Exprs: []plan.Expr{
			&plan.Arith{Op: plan.Add, L: status, R: &plan.Const{T: coltypes.String(), Str: "x"}, T: coltypes.Int()},
		}},
		// Group key that is not a column.
		&plan.GroupBy{Input: scan,
			Keys: []plan.Expr{&plan.Const{T: coltypes.Int(), Val: 1}},
			Aggs: []plan.AggExpr{{Kind: plan.CountStar, Name: "n"}}},
		// Join with zero keys.
		&plan.Join{Type: plan.InnerJoin, Left: scan, Right: scan},
	}
	for i, n := range bad {
		if _, err := Compile(n); err == nil {
			t.Errorf("case %d should fail to compile", i)
		}
	}
}

func TestCompileOrPredicateSelectivity(t *testing.T) {
	tbl := ordersTable(t, 3000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	ck := colRefOf(scan, "o_custkey")
	or := &plan.OrPred{Preds: []plan.Pred{
		&plan.Cmp{Op: plan.LT, L: ck, R: &plan.Const{T: coltypes.Int(), Val: 10}},
		&plan.Cmp{Op: plan.GE, L: ck, R: &plan.Const{T: coltypes.Int(), Val: 190}},
	}}
	not := &plan.NotPred{P: or}
	ctx := qef.NewContext(qef.ModeDPU)
	relOr := run(t, ctx, &plan.Filter{Input: scan, Pred: or})
	relNot := run(t, ctx, &plan.Filter{Input: scan, Pred: not})
	if relOr.Rows()+relNot.Rows() != 3000 {
		t.Fatalf("OR (%d) + NOT OR (%d) must partition the input", relOr.Rows(), relNot.Rows())
	}
}

// TestCompilePredOrdersConjunctsAndCombinesEstimates pins what the compiler
// hands the filter operator: an AND's members most-selective-first, ties in
// source order, and the estimates combined in source order — AND multiplies,
// OR is 1 − Π(1 − s), NOT is 1 − s, and a leaf estimate outside (0, 1]
// (a LIKE matching no dictionary code) counts as 0.5.
func TestCompilePredOrdersConjunctsAndCombinesEstimates(t *testing.T) {
	dict := encoding.NewDict()
	for _, s := range []string{"a", "b", "c", "d"} {
		dict.Add(s)
	}
	cols := []colInfo{
		{field: plan.Field{Name: "n", Type: coltypes.Int()}, stats: &storage.ColStats{Min: 0, Max: 99, NDV: 100}},
		{field: plan.Field{Name: "s", Type: coltypes.String(), Dict: dict}},
	}
	n := &plan.ColRef{Idx: 0, Name: "n", T: coltypes.Int()}
	cmp := func(op plan.CmpOp, v int64) *plan.Cmp {
		return &plan.Cmp{Op: op, L: n, R: &plan.Const{T: coltypes.Int(), Val: v}}
	}
	lt50, gt49, eq7 := cmp(plan.LT, 50), cmp(plan.GT, 49), cmp(plan.EQ, 7) // 0.5, 0.5, 0.01
	noMatch := &plan.LikePred{E: &plan.ColRef{Idx: 1, Name: "s", T: coltypes.String(), Dict: dict}, Kind: plan.LikePrefix, Pattern: "zz"}

	compile := func(p plan.Pred) (ops.Predicate, float64) {
		t.Helper()
		pred, sel, err := newExprc(cols).pred(p)
		if err != nil {
			t.Fatal(err)
		}
		return pred, sel
	}
	for _, tc := range []struct {
		name string
		p    plan.Pred
		want float64
	}{
		{"empty LIKE", noMatch, 0.5},
		{"NOT", &plan.NotPred{P: eq7}, 1 - 0.01},
		{"OR", &plan.OrPred{Preds: []plan.Pred{eq7, lt50}}, 1 - (1-0.01)*(1-0.5)},
		{"AND", &plan.AndPred{Preds: []plan.Pred{lt50, noMatch, eq7, gt49}}, 0.5 * 0.5 * 0.01 * 0.5},
	} {
		if _, sel := compile(tc.p); sel != tc.want {
			t.Errorf("%s: selectivity %v, want %v", tc.name, sel, tc.want)
		}
	}

	and, _ := compile(&plan.AndPred{Preds: []plan.Pred{lt50, noMatch, eq7, gt49}})
	var got []string
	for _, m := range and.(*ops.And).Preds {
		switch m := m.(type) {
		case *ops.ConstCmp:
			got = append(got, fmt.Sprintf("n %v %d", m.Op, m.Val))
		case *ops.InSet:
			got = append(got, "s LIKE")
		}
	}
	if want := []string{"n = 7", "n < 50", "s LIKE", "n > 49"}; !slices.Equal(got, want) {
		t.Errorf("conjunct order %q, want %q", got, want)
	}
}
