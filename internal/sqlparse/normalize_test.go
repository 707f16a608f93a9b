package sqlparse

import "testing"

func TestNormalizeGroupsLiteralVariants(t *testing.T) {
	base := "SELECT l_orderkey, SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 24 AND l_shipdate >= DATE '1994-01-01' GROUP BY l_orderkey"
	variants := []string{
		"select l_orderkey,   sum(l_extendedprice)\nfrom LINEITEM where l_quantity < 17 and l_shipdate >= date '1995-06-30' group by l_orderkey",
		"SELECT L_ORDERKEY, SUM(L_EXTENDEDPRICE) FROM lineitem WHERE l_quantity < 0.5 AND l_shipdate >= DATE '1993-12-31' GROUP BY l_orderkey",
	}
	nb, err := Normalize(base)
	if err != nil {
		t.Fatalf("Normalize(base): %v", err)
	}
	for _, v := range variants {
		nv, err := Normalize(v)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", v, err)
		}
		if nv.TemplateFP != nb.TemplateFP || nv.Template != nb.Template {
			t.Errorf("variant did not share template:\n base: %s\n  got: %s", nb.Template, nv.Template)
		}
		if nv.ParamsFP == nb.ParamsFP {
			t.Errorf("distinct literals must differ in ParamsFP: %q", v)
		}
	}
}

func TestNormalizeSameLiteralsSameParamsFP(t *testing.T) {
	a, err := Normalize("SELECT * FROM t WHERE a = 5 AND b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize("select *  from t where A=5 and B='x'")
	if err != nil {
		t.Fatal(err)
	}
	if a.TemplateFP != b.TemplateFP || a.ParamsFP != b.ParamsFP {
		t.Fatalf("identical queries must share both fingerprints: %+v vs %+v", a, b)
	}
}

func TestNormalizeDistinguishesTemplates(t *testing.T) {
	a, _ := Normalize("SELECT a FROM t WHERE a < 5")
	b, _ := Normalize("SELECT a FROM t WHERE a > 5")
	if a.TemplateFP == b.TemplateFP {
		t.Fatalf("different operators must not collide: %q vs %q", a.Template, b.Template)
	}
	// A string and a number with the same spelling are different parameters.
	c, _ := Normalize("SELECT a FROM t WHERE a = 5")
	d, _ := Normalize("SELECT a FROM t WHERE a = '5'")
	if c.TemplateFP != d.TemplateFP {
		t.Fatalf("both should normalize to = ?")
	}
	if c.ParamsFP == d.ParamsFP {
		t.Fatalf("number 5 and string '5' must hash differently")
	}
}

func TestNormalizeLexErrorFallsThrough(t *testing.T) {
	if _, err := Normalize("SELECT 'unterminated"); err == nil {
		t.Fatal("want lex error")
	}
}

func TestStmtTables(t *testing.T) {
	stmt, err := Parse("SELECT * FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE l.l_partkey IN (SELECT p_partkey FROM part WHERE p_size < 10)")
	if err != nil {
		t.Fatal(err)
	}
	got := StmtTables(stmt)
	want := []string{"lineitem", "orders", "part"}
	if len(got) != len(want) {
		t.Fatalf("tables = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tables = %v, want %v", got, want)
		}
	}
}
