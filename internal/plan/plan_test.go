package plan

import (
	"strings"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/storage"
)

func testTable(t *testing.T) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "id", Type: coltypes.Int()},
		storage.ColumnDef{Name: "price", Type: coltypes.Decimal(2)},
		storage.ColumnDef{Name: "name", Type: coltypes.String()},
		storage.ColumnDef{Name: "day", Type: coltypes.Date()},
	)
	b := storage.NewTableBuilder("t", schema, storage.BuildOptions{})
	for i := 0; i < 10; i++ {
		if err := b.Append([]storage.Value{
			storage.IntValue(int64(i)),
			storage.DecString("1.50"),
			storage.StrValue("x"),
			storage.DateValue(2020, 1, 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestScanSchema(t *testing.T) {
	tbl := testTable(t)
	s := NewScan(tbl, storage.LatestSCN, nil)
	if len(s.Schema()) != 4 {
		t.Fatalf("schema = %d cols", len(s.Schema()))
	}
	if s.Schema()[1].Type.Scale != 2 {
		t.Fatal("decimal scale lost")
	}
	if s.Schema()[2].Dict == nil {
		t.Fatal("string column must carry its dictionary")
	}
	pruned := NewScan(tbl, storage.LatestSCN, []int{2, 0})
	if len(pruned.Schema()) != 2 || pruned.Schema()[0].Name != "name" {
		t.Fatal("pruned scan schema wrong")
	}
}

func TestArithTypeResolution(t *testing.T) {
	d2 := &Const{T: coltypes.Decimal(2), Val: 150}
	d1 := &Const{T: coltypes.Decimal(1), Val: 5}
	i := &Const{T: coltypes.Int(), Val: 3}
	date := &Const{T: coltypes.Date(), Val: 100}
	str := &Const{T: coltypes.String(), Str: "x"}

	add, err := NewArith(Add, d2, d1)
	if err != nil || add.Type().Scale != 2 {
		t.Fatalf("add scale = %d (%v)", add.Type().Scale, err)
	}
	mul, err := NewArith(Mul, d2, d1)
	if err != nil || mul.Type().Scale != 3 {
		t.Fatalf("mul scale = %d", mul.Type().Scale)
	}
	div, err := NewArith(Div, d2, d1)
	if err != nil || div.Type().Scale != DivScale {
		t.Fatalf("div scale = %d", div.Type().Scale)
	}
	ii, err := NewArith(Sub, i, i)
	if err != nil || ii.Type().Kind != coltypes.KindInt {
		t.Fatal("int-int must stay int")
	}
	dd, err := NewArith(Add, date, i)
	if err != nil || dd.Type().Kind != coltypes.KindDate {
		t.Fatal("date + int must stay a date")
	}
	if _, err := NewArith(Add, str, i); err == nil {
		t.Fatal("string arithmetic must fail")
	}
}

func TestAggExprTypes(t *testing.T) {
	arg := &Const{T: coltypes.Decimal(2), Val: 1}
	if (&AggExpr{Kind: Sum, Arg: arg}).Type().Scale != 2 {
		t.Fatal("SUM keeps scale")
	}
	if (&AggExpr{Kind: Avg, Arg: arg}).Type().Scale != 4 {
		t.Fatal("AVG adds two scale digits")
	}
	if (&AggExpr{Kind: Count, Arg: arg}).Type().Kind != coltypes.KindInt {
		t.Fatal("COUNT is int")
	}
	if (&AggExpr{Kind: CountStar}).Type().Kind != coltypes.KindInt {
		t.Fatal("COUNT(*) is int")
	}
}

func TestCaseScaleUnification(t *testing.T) {
	c, err := NewCase(&Cmp{Op: EQ, L: &Const{T: coltypes.Int(), Val: 1}, R: &Const{T: coltypes.Int(), Val: 1}},
		&Const{T: coltypes.Decimal(2), Val: 100},
		&Const{T: coltypes.Int(), Val: 0})
	if err != nil || c.Type().Scale != 2 {
		t.Fatalf("case scale = %d", c.Type().Scale)
	}
}

func TestNodeSchemas(t *testing.T) {
	tbl := testTable(t)
	scan := NewScan(tbl, storage.LatestSCN, nil)
	filter := &Filter{Input: scan, Pred: &Cmp{Op: GT, L: &ColRef{Idx: 0, T: coltypes.Int()}, R: &Const{T: coltypes.Int(), Val: 1}}}
	if len(filter.Schema()) != 4 {
		t.Fatal("filter schema passthrough")
	}
	join := &Join{Type: InnerJoin, Left: scan, Right: scan, LeftKeys: []int{0}, RightKeys: []int{0}}
	if len(join.Schema()) != 8 {
		t.Fatal("inner join concatenates schemas")
	}
	semi := &Join{Type: SemiJoin, Left: scan, Right: scan, LeftKeys: []int{0}, RightKeys: []int{0}}
	if len(semi.Schema()) != 4 {
		t.Fatal("semi join keeps left schema")
	}
	gb := &GroupBy{
		Input: scan,
		Keys:  []Expr{&ColRef{Idx: 2, Name: "name", T: coltypes.String()}},
		Aggs:  []AggExpr{{Kind: CountStar, Name: "n"}},
	}
	gs := gb.Schema()
	if len(gs) != 2 || gs[0].Name != "name" || gs[1].Name != "n" {
		t.Fatalf("groupby schema: %+v", gs)
	}
	// Group key resolves the dictionary from the input schema.
	if gs[0].Dict == nil {
		t.Fatal("group key lost dictionary")
	}
	w := &Window{Input: scan, Func: RowNumber, Name: "rn"}
	ws := w.Schema()
	if len(ws) != 5 || ws[4].Name != "rn" {
		t.Fatal("window schema")
	}
	proj := &Project{Input: scan, Exprs: []Expr{&ColRef{Idx: 1, Name: "price", T: coltypes.Decimal(2)}}, Names: []string{"p"}}
	if proj.Schema()[0].Name != "p" || proj.Schema()[0].Type.Scale != 2 {
		t.Fatal("project schema")
	}
	lim := &Limit{Input: &Sort{Input: scan, Keys: []SortItem{{Col: 0}}}, K: 3}
	if len(lim.Schema()) != 4 {
		t.Fatal("limit schema")
	}
	so := &SetOp{Kind: Union, Left: scan, Right: scan}
	if len(so.Schema()) != 4 {
		t.Fatal("setop schema")
	}
}

func TestFormat(t *testing.T) {
	tbl := testTable(t)
	scan := NewScan(tbl, storage.LatestSCN, nil)
	n := &Limit{Input: &Filter{Input: scan, Pred: &Cmp{Op: EQ,
		L: &ColRef{Idx: 0, Name: "id", T: coltypes.Int()}, R: &Const{T: coltypes.Int(), Val: 5}}}, K: 1}
	out := Format(n)
	for _, want := range []string{"Limit(1)", "Filter(id = 5)", "Scan(t)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	// Indentation reflects depth.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[2], "    ") {
		t.Fatalf("format structure:\n%s", out)
	}
}

func TestPredStrings(t *testing.T) {
	c := &ColRef{Idx: 0, Name: "x", T: coltypes.Int()}
	v := &Const{T: coltypes.Int(), Val: 5}
	cases := map[string]Pred{
		"x = 5":             &Cmp{Op: EQ, L: c, R: v},
		"x BETWEEN 5 AND 5": &BetweenPred{E: c, Lo: v, Hi: v},
		"NOT (x = 5)":       &NotPred{P: &Cmp{Op: EQ, L: c, R: v}},
		"(x = 5 AND x = 5)": &AndPred{Preds: []Pred{&Cmp{Op: EQ, L: c, R: v}, &Cmp{Op: EQ, L: c, R: v}}},
		"(x = 5 OR x = 5)":  &OrPred{Preds: []Pred{&Cmp{Op: EQ, L: c, R: v}, &Cmp{Op: EQ, L: c, R: v}}},
	}
	for want, p := range cases {
		if p.String() != want {
			t.Errorf("String = %q, want %q", p.String(), want)
		}
	}
	like := &LikePred{E: c, Kind: LikePrefix, Pattern: "ab"}
	if !strings.Contains(like.String(), "LIKE") {
		t.Fatal("like string")
	}
	in := &InPred{E: c, List: []*Const{v}}
	if !strings.Contains(in.String(), "IN") {
		t.Fatal("in string")
	}
	// Const rendering by type.
	if (&Const{T: coltypes.Decimal(2), Val: 150}).String() != "1.50" {
		t.Fatal("decimal const string")
	}
	if (&Const{T: coltypes.String(), Str: "hi"}).String() != "'hi'" {
		t.Fatal("string const string")
	}
}

// A COUNT(*) straight over a join reads none of its columns; the join still
// outputs one, its first left key, so that its output has rows to count.
func TestLiveKeepsAColumnOfAJoinNothingReads(t *testing.T) {
	tbl := testTable(t)
	for _, typ := range []JoinType{InnerJoin, SemiJoin, AntiJoin} {
		j := &Join{Type: typ,
			Left:     NewScan(tbl, storage.LatestSCN, nil),
			Right:    NewScan(tbl, storage.LatestSCN, nil),
			LeftKeys: []int{3}, RightKeys: []int{0}}
		n, err := Live(&GroupBy{Input: j, Aggs: []AggExpr{{Kind: CountStar, Name: "n"}}})
		if err != nil {
			t.Fatal(err)
		}
		got := n.(*GroupBy).Input.(*Join)
		if fs := got.Schema(); len(fs) != 1 || fs[0].Name != "day" {
			t.Errorf("join type %d outputs %v, want its left key day alone", typ, fs)
		}
	}
}
