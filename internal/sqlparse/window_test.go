package sqlparse

import (
	"testing"
)

func TestParseWindowFunctions(t *testing.T) {
	stmt, err := Parse(`
		SELECT i_id, row_number() OVER (PARTITION BY i_cat ORDER BY i_price DESC) AS rn,
		       SUM(i_qty) OVER (PARTITION BY i_cat) AS cat_qty
		FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	rn := stmt.Select[1].Expr.(*FuncExpr)
	if rn.Name != "ROW_NUMBER" || rn.Over == nil {
		t.Fatalf("row_number parse: %+v", rn)
	}
	if len(rn.Over.PartitionBy) != 1 || len(rn.Over.OrderBy) != 1 || !rn.Over.OrderBy[0].Desc {
		t.Fatalf("over clause: %+v", rn.Over)
	}
	sw := stmt.Select[2].Expr.(*FuncExpr)
	if sw.Name != "SUM" || sw.Over == nil || len(sw.Over.OrderBy) != 0 {
		t.Fatalf("sum over: %+v", sw)
	}
}

func TestWindowEndToEnd(t *testing.T) {
	cat := testCatalog(t)
	// Row number within each qty class by price: the top-ranked row per
	// class must have the maximum price of the class.
	rel := execSQL(t, cat, `
		SELECT i_id, i_qty, i_price,
		       row_number() OVER (PARTITION BY i_qty ORDER BY i_price DESC) AS rn
		FROM item
		WHERE i_cat = 0`)
	if rel.Rows() == 0 {
		t.Fatal("no rows")
	}
	// Collect per-class max price and the price at rn=1.
	maxPrice := map[int64]int64{}
	rnOne := map[int64]int64{}
	for i := 0; i < rel.Rows(); i++ {
		qty := rel.Col(1).Get(i)
		price := rel.Col(2).Get(i)
		if price > maxPrice[qty] {
			maxPrice[qty] = price
		}
		if rel.Col(3).Get(i) == 1 {
			rnOne[qty] = price
		}
	}
	for qty, want := range maxPrice {
		if rnOne[qty] != want {
			t.Fatalf("class %d: rn=1 price %d, max %d", qty, rnOne[qty], want)
		}
	}
}

func TestWindowTotalSum(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT i_cat, i_qty, SUM(i_qty) OVER (PARTITION BY i_cat) AS total
		FROM item WHERE i_cat < 2`)
	// Per category, the window total must equal the sum of qty.
	sums := map[int64]int64{}
	for i := 0; i < rel.Rows(); i++ {
		sums[rel.Col(0).Get(i)] += rel.Col(1).Get(i)
	}
	for i := 0; i < rel.Rows(); i++ {
		c := rel.Col(0).Get(i)
		if rel.Col(2).Get(i) != sums[c] {
			t.Fatalf("cat %d: window total %d, want %d", c, rel.Col(2).Get(i), sums[c])
		}
	}
}

func TestWindowCumSum(t *testing.T) {
	cat := testCatalog(t)
	rel := execSQL(t, cat, `
		SELECT i_id, SUM(i_qty) OVER (PARTITION BY i_cat ORDER BY i_id) AS running
		FROM item WHERE i_cat = 3 ORDER BY i_id`)
	// Running sum must be nondecreasing in id order within the single
	// category (qty >= 1 always).
	for i := 1; i < rel.Rows(); i++ {
		if rel.Col(1).Get(i) <= rel.Col(1).Get(i-1) {
			t.Fatalf("running sum not increasing at row %d", i)
		}
	}
}

func TestWindowErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		`SELECT row_number() OVER (PARTITION BY i_cat), COUNT(*) FROM item`, // window + agg
		`SELECT 1 + row_number() OVER (PARTITION BY i_cat) FROM item`,       // nested window
		`SELECT rank() OVER (PARTITION BY i_qty + 1) FROM item`,             // expr partition key
		`SELECT AVG(i_qty) OVER (PARTITION BY i_cat) FROM item`,             // unsupported window fn
		`SELECT COUNT(*) FROM item HAVING SUM(i_qty) OVER () > 1`,           // window in HAVING
	}
	for _, sql := range bad {
		stmt, err := Parse(sql)
		if err != nil {
			continue
		}
		if _, err := Bind(stmt, cat, 0); err == nil {
			t.Errorf("Bind(%q) should fail", sql)
		}
	}
}
