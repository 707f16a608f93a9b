package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// --- lexer / parser ----------------------------------------------------------

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a_1, 'it''s', 12.5 FROM t WHERE x <= 3 -- comment\nAND y != 2;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, "|")
	if !strings.Contains(joined, "it's") {
		t.Fatalf("escaped quote: %s", joined)
	}
	if !strings.Contains(joined, "<=") || !strings.Contains(joined, "<>") {
		t.Fatalf("operators: %s", joined)
	}
	if strings.Contains(joined, "comment") {
		t.Fatal("comment not skipped")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Fatal("bad char should fail")
	}
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
}

func TestParseBasic(t *testing.T) {
	stmt, err := Parse(`
		SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15'
		GROUP BY l_orderkey
		ORDER BY revenue DESC
		LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Select) != 2 || stmt.Select[1].As != "revenue" {
		t.Fatal("select list")
	}
	if len(stmt.From) != 2 || stmt.From[0].Name != "lineitem" {
		t.Fatal("from list")
	}
	if stmt.Limit != 10 || len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		t.Fatal("order/limit")
	}
	if len(stmt.GroupBy) != 1 {
		t.Fatal("group by")
	}
}

func TestParseDateInterval(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t WHERE d >= DATE '1994-01-01' AND d < DATE '1994-01-01' + INTERVAL '1' YEAR`)
	if err != nil {
		t.Fatal(err)
	}
	var conj []AstPred
	flattenAnd(stmt.Where, &conj)
	c2 := conj[1].(*CmpPred)
	d := c2.R.(*DateLit)
	want := storage.DateValue(1995, 1, 1).Days()
	if d.Days != want {
		t.Fatalf("interval fold = %d, want %d", d.Days, want)
	}
}

func TestParseCaseInBetweenLike(t *testing.T) {
	stmt, err := Parse(`
		SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice ELSE 0 END)
		FROM lineitem
		WHERE l_quantity BETWEEN 1 AND 10 AND l_shipmode IN ('MAIL', 'SHIP') AND NOT l_flag = 1`)
	if err != nil {
		t.Fatal(err)
	}
	f := stmt.Select[0].Expr.(*FuncExpr)
	if f.Name != "SUM" {
		t.Fatal("agg")
	}
	if _, ok := f.Arg.(*CaseExpr); !ok {
		t.Fatal("case arg")
	}
	var conj []AstPred
	flattenAnd(stmt.Where, &conj)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if _, ok := conj[0].(*BetweenP); !ok {
		t.Fatal("between")
	}
	in := conj[1].(*InP)
	if len(in.List) != 2 {
		t.Fatal("in list")
	}
	if _, ok := conj[2].(*NotP); !ok {
		t.Fatal("not")
	}
}

func TestParseJoinOn(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t1 JOIN t2 ON t1.k = t2.k LEFT JOIN t3 ON t2.j = t3.j WHERE t1.x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Joins) != 2 || stmt.Joins[0].Kind != "INNER" || stmt.Joins[1].Kind != "LEFT" {
		t.Fatalf("joins: %+v", stmt.Joins)
	}
}

func TestParseSubquery(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t WHERE k IN (SELECT k2 FROM u WHERE z = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	in := stmt.Where.(*InP)
	if in.Sub == nil {
		t.Fatal("subquery missing")
	}
}

func TestParseUnion(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t UNION SELECT a FROM u`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.SetOp != "UNION" || stmt.SetRight == nil {
		t.Fatal("union")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t trailing junk (",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// --- binder + end-to-end through qcomp ----------------------------------------

type mapCatalog map[string]*storage.Table

func (m mapCatalog) Lookup(name string) (*storage.Table, error) {
	if t, ok := m[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("no table %q", name)
}

func testCatalog(t testing.TB) mapCatalog {
	t.Helper()
	items := storage.NewTableBuilder("item", storage.MustSchema(
		storage.ColumnDef{Name: "i_id", Type: coltypes.Int()},
		storage.ColumnDef{Name: "i_cat", Type: coltypes.Int()},
		storage.ColumnDef{Name: "i_price", Type: coltypes.Decimal(2)},
		storage.ColumnDef{Name: "i_qty", Type: coltypes.Int()},
		storage.ColumnDef{Name: "i_date", Type: coltypes.Date()},
		storage.ColumnDef{Name: "i_mode", Type: coltypes.String()},
	), storage.BuildOptions{ChunkRows: 512})
	modes := []string{"MAIL", "SHIP", "AIR", "RAIL"}
	for i := 0; i < 4000; i++ {
		must(t, items.Append([]storage.Value{
			storage.IntValue(int64(i)),
			storage.IntValue(int64(i % 40)),
			storage.DecString(fmt.Sprintf("%d.%02d", 1+i%50, i%100)),
			storage.IntValue(int64(i%10 + 1)),
			storage.DateValue(1994, 1+(i%12), 1+(i%28)),
			storage.StrValue(modes[i%4]),
		}))
	}
	cats := storage.NewTableBuilder("cat", storage.MustSchema(
		storage.ColumnDef{Name: "c_id", Type: coltypes.Int()},
		storage.ColumnDef{Name: "c_name", Type: coltypes.String()},
	), storage.BuildOptions{})
	for i := 0; i < 40; i++ {
		must(t, cats.Append([]storage.Value{
			storage.IntValue(int64(i)),
			storage.StrValue(fmt.Sprintf("cat-%02d", i)),
		}))
	}
	return mapCatalog{"item": items.MustBuild(), "cat": cats.MustBuild()}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func execSQL(t *testing.T, cat mapCatalog, sql string) *ops.Relation {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Bind(stmt, cat, storage.LatestSCN)
	if err != nil {
		t.Fatal(err)
	}
	c, err := qcomp.Compile(node)
	if err != nil {
		t.Fatalf("compile: %v\nplan:\n%s", err, plan.Format(node))
	}
	rel, err := c.Execute(qef.NewContext(qef.ModeX86))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestBindSimpleFilter(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `SELECT i_id, i_qty FROM item WHERE i_qty > 8 AND i_mode = 'MAIL'`)
	want := 0
	for i := 0; i < 4000; i++ {
		if i%10+1 > 8 && i%4 == 0 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
	if rel.Cols[0].Name != "i_id" || rel.Cols[1].Name != "i_qty" {
		t.Fatal("output names")
	}
}

func TestBindAggregateAvgHaving(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT i_cat, COUNT(*) AS n, AVG(i_qty) AS aq
		FROM item
		GROUP BY i_cat
		HAVING COUNT(*) > 50
		ORDER BY i_cat`)
	// 40 categories x 100 rows each; all pass HAVING.
	if rel.Rows() != 40 {
		t.Fatalf("rows = %d", rel.Rows())
	}
	if rel.Col(1).Get(0) != 100 {
		t.Fatalf("count = %d", rel.Col(1).Get(0))
	}
	// ORDER BY: categories ascending.
	for i := 1; i < 40; i++ {
		if rel.Col(0).Get(i-1) >= rel.Col(0).Get(i) {
			t.Fatal("not sorted")
		}
	}
}

func TestBindJoin(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT i_id, c_name
		FROM item, cat
		WHERE i_cat = c_id AND i_qty = 10 AND c_name = 'cat-09'`)
	want := 0
	for i := 0; i < 4000; i++ {
		if i%10+1 == 10 && i%40 == 9 {
			want++
		}
	}
	if want == 0 {
		t.Fatal("test data broken: expected matches")
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
	if rel.Render(0, 1) != "cat-09" {
		t.Fatalf("c_name = %s", rel.Render(0, 1))
	}
}

func TestBindExpressionRevenue(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT SUM(i_price * i_qty) AS rev
		FROM item
		WHERE i_date >= DATE '1994-06-01' AND i_date < DATE '1994-06-01' + INTERVAL '1' MONTH`)
	if rel.Rows() != 1 {
		t.Fatal("scalar agg should give one row")
	}
	var want int64
	for i := 0; i < 4000; i++ {
		d := storage.DateValue(1994, 1+(i%12), 1+(i%28)).Days()
		lo := storage.DateValue(1994, 6, 1).Days()
		hi := storage.DateValue(1994, 7, 1).Days()
		if d >= lo && d < hi {
			price := int64(1+i%50)*100 + int64(i%100)
			want += price * int64(i%10+1)
		}
	}
	if got := rel.Col(0).Get(0); got != want {
		t.Fatalf("rev = %d, want %d", got, want)
	}
	// SUM of scale-2 values keeps scale 2.
	if rel.Cols[0].Type.Scale != 2 {
		t.Fatalf("scale = %d", rel.Cols[0].Type.Scale)
	}
}

func TestBindInSubquery(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT i_id FROM item
		WHERE i_cat IN (SELECT c_id FROM cat WHERE c_name LIKE 'cat-0%') AND i_qty = 1`)
	// c_name LIKE 'cat-0%' -> categories 0..9; i_qty = 1 -> i%10 == 0.
	want := 0
	for i := 0; i < 4000; i++ {
		if i%40 < 10 && i%10 == 0 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
}

func TestBindCaseAggregate(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT SUM(CASE WHEN i_mode = 'MAIL' THEN 1 ELSE 0 END) AS mails, COUNT(*) AS n
		FROM item`)
	if rel.Col(0).Get(0) != 1000 || rel.Col(1).Get(0) != 4000 {
		t.Fatalf("case agg = %d/%d", rel.Col(0).Get(0), rel.Col(1).Get(0))
	}
}

func TestBindOrderByPosition(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `SELECT i_cat, COUNT(*) FROM item GROUP BY i_cat ORDER BY 2 DESC, 1 LIMIT 3`)
	if rel.Rows() != 3 {
		t.Fatalf("rows = %d", rel.Rows())
	}
}

func TestBindUnion(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT i_cat FROM item WHERE i_qty = 1
		UNION
		SELECT i_cat FROM item WHERE i_qty = 2`)
	// i_qty=1 hits cats {0,10,20,30}; i_qty=2 hits {1,11,21,31}: 8 distinct.
	if rel.Rows() != 8 {
		t.Fatalf("union rows = %d, want 8 distinct cats", rel.Rows())
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		`SELECT nope FROM item`,
		`SELECT i_id FROM missing`,
		`SELECT i_id FROM item, cat`,      // cross join
		`SELECT i_id, COUNT(*) FROM item`, // non-grouped column with agg
		`SELECT i_id FROM item ORDER BY nope`,
	}
	for _, sql := range bad {
		stmt, err := Parse(sql)
		if err != nil {
			continue
		}
		if _, err := Bind(stmt, cat, storage.LatestSCN); err == nil {
			t.Errorf("Bind(%q) should fail", sql)
		}
	}
	// A HAVING aggregate's argument binds against the input like a SELECT
	// one, and its error is the statement's.
	sql := `SELECT i_cat, SUM(i_qty) FROM item GROUP BY i_cat HAVING SUM(nope) > 1`
	stmt, err := Parse(sql)
	must(t, err)
	if _, err := Bind(stmt, cat, storage.LatestSCN); err == nil || !strings.Contains(err.Error(), `unknown column "nope"`) {
		t.Errorf("Bind(%q) = %v, want the unknown column", sql, err)
	}
}

// TestBindAggregateOverString rejects SUM, AVG, MIN and MAX over a string
// column, naming the function: the column holds dictionary codes, so the
// answer would be a code. COUNT of a string column still binds.
func TestBindAggregateOverString(t *testing.T) {
	cat := testCatalog(t)
	for _, fn := range []string{"SUM", "AVG", "MIN", "MAX"} {
		for _, sql := range []string{
			`SELECT ` + fn + `(i_mode) FROM item`,
			`SELECT i_cat, ` + fn + `(i_mode) FROM item GROUP BY i_cat`,
			`SELECT i_cat FROM item GROUP BY i_cat HAVING ` + fn + `(i_mode) > 0`,
		} {
			stmt, err := Parse(sql)
			must(t, err)
			if _, err := Bind(stmt, cat, storage.LatestSCN); err == nil || !strings.Contains(err.Error(), fn+" over a string") {
				t.Errorf("Bind(%q) = %v, want an error naming %s over a string", sql, err, fn)
			}
		}
	}
	rel := execSQL(t, cat, `SELECT COUNT(i_mode) FROM item`)
	if got := rel.Get(0, 0); got != 4000 {
		t.Fatalf("COUNT(i_mode) = %d, want 4000", got)
	}
}

// TestBindScanColumnsInTableOrder binds one statement repeatedly: its scan
// reads the referenced columns in ascending table order, never in the order
// of a map walk.
func TestBindScanColumnsInTableOrder(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := Parse(`SELECT i_id, i_qty, i_mode, i_cat FROM item WHERE i_qty > 3`)
	must(t, err)
	want := []int{0, 1, 3, 5} // i_id, i_cat, i_qty, i_mode
	for run := 0; run < 50; run++ {
		node, err := Bind(stmt, cat, storage.LatestSCN)
		must(t, err)
		for node.Children() != nil {
			node = node.Children()[0]
		}
		if got := node.(*plan.Scan).Cols; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: Scan.Cols = %v, want %v", run, got, want)
		}
	}
}

func TestBindAliases(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT x.i_id FROM item x, cat y
		WHERE x.i_cat = y.c_id AND y.c_name = 'cat-00' AND x.i_qty > 9`)
	want := 0
	for i := 0; i < 4000; i++ {
		if i%40 == 0 && i%10+1 > 9 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
}

func TestBindLeftJoin(t *testing.T) {
	cat := testCatalog(t)
	// Items in categories 0..39 against a filtered category list: LEFT
	// JOIN keeps all items; unmatched rows render zero-valued payload.
	rel := execSQL(t, cat, `
		SELECT i_id, c_name
		FROM item LEFT JOIN cat ON i_cat = c_id
		WHERE i_qty = 5`)
	want := 0
	for i := 0; i < 4000; i++ {
		if i%10+1 == 5 {
			want++
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
}

func TestBindHavingOverAggregateExpr(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT i_cat, SUM(i_qty) AS s
		FROM item
		GROUP BY i_cat
		HAVING SUM(i_qty) > 500 AND COUNT(*) > 50
		ORDER BY i_cat`)
	// Category c has 100 rows all with qty c%10+1, so SUM = 100*(c%10+1):
	// above 500 only for c%10 >= 5, i.e. 20 of the 40 categories.
	if rel.Rows() != 20 {
		t.Fatalf("rows = %d, want 20", rel.Rows())
	}
	// First passing category is 5 with sum 600.
	if rel.Col(0).Get(0) != 5 || rel.Col(1).Get(0) != 600 {
		t.Fatalf("first group: cat=%d sum=%d", rel.Col(0).Get(0), rel.Col(1).Get(0))
	}
}

// TestBindCaseOverAggregates: above a GROUP BY, a CASE binds through the
// same binder as below it, so its condition and branches may hold
// aggregates, in SELECT and in HAVING, grouped or not.
func TestBindCaseOverAggregates(t *testing.T) {
	cat := testCatalog(t)
	// Category c has 100 rows, all with qty c%10+1: SUM = 100*(c%10+1).
	rel := execSQL(t, cat, `
		SELECT i_cat, CASE WHEN SUM(i_qty) > 500 THEN 1 ELSE 0 END AS big
		FROM item GROUP BY i_cat ORDER BY i_cat`)
	if rel.Rows() != 40 {
		t.Fatalf("rows = %d, want 40", rel.Rows())
	}
	for i := 0; i < 40; i++ {
		want := int64(0)
		if 100*(i%10+1) > 500 {
			want = 1
		}
		if cat, big := rel.Get(i, 0), rel.Get(i, 1); cat != int64(i) || big != want {
			t.Fatalf("row %d: cat=%d big=%d, want cat=%d big=%d", i, cat, big, i, want)
		}
	}
	rel = execSQL(t, cat, `
		SELECT i_cat, SUM(i_qty) FROM item GROUP BY i_cat
		HAVING CASE WHEN SUM(i_qty) > 500 THEN 1 ELSE 0 END = 1 ORDER BY i_cat`)
	if rel.Rows() != 20 || rel.Get(0, 0) != 5 || rel.Get(0, 1) != 600 {
		t.Fatalf("HAVING CASE: %d rows, first cat=%d sum=%d; want 20 rows from cat 5, sum 600",
			rel.Rows(), rel.Get(0, 0), rel.Get(0, 1))
	}
	rel = execSQL(t, cat, `SELECT CASE WHEN COUNT(*) > 3999 THEN 1 ELSE 0 END FROM item`)
	if rel.Rows() != 1 || rel.Get(0, 0) != 1 {
		t.Fatalf("scalar CASE over COUNT(*): %d rows, value %d", rel.Rows(), rel.Get(0, 0))
	}
	// A string literal binds above a GROUP BY as below it: compared with a
	// grouped dictionary column it filters, and as a projected value it
	// fails at compile time in both places.
	rel = execSQL(t, cat, `SELECT i_mode, COUNT(*) FROM item GROUP BY i_mode HAVING i_mode = 'MAIL'`)
	if rel.Rows() != 1 || rel.Render(0, 0) != "MAIL" || rel.Get(0, 1) != 1000 {
		t.Fatalf("HAVING on a string key: %d rows", rel.Rows())
	}
	for _, sql := range []string{`SELECT 'x' FROM item`, `SELECT i_cat, 'x' FROM item GROUP BY i_cat`} {
		stmt, err := Parse(sql)
		must(t, err)
		node, err := Bind(stmt, cat, storage.LatestSCN)
		if err != nil {
			t.Fatalf("Bind(%q): %v", sql, err)
		}
		if _, err := qcomp.Compile(node); err == nil {
			t.Errorf("Compile(%q) should fail on the projected string literal", sql)
		}
	}
}

func TestBindPostAggArithmetic(t *testing.T) {
	cat := testCatalog(t)
	// Q14-style ratio over two aggregates.
	rel := execSQL(t, cat, `
		SELECT 100.0 * SUM(i_qty) / COUNT(*) AS avg_x100 FROM item`)
	if rel.Rows() != 1 {
		t.Fatal("scalar")
	}
	// avg qty = 5.5, x100 = 550; result scale is DivScale (4).
	if got := rel.Col(0).Get(0); got != 550*10000 {
		t.Fatalf("ratio = %d", got)
	}
}
