package sqlparse

import (
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// fuzzCatalog holds the tables and columns the fuzz seeds name, a few rows
// each.
func fuzzCatalog(t testing.TB) mapCatalog {
	t.Helper()
	i, d, s := coltypes.Int(), coltypes.Date(), coltypes.String()
	defs := map[string][]storage.ColumnDef{
		"t":  {{Name: "a", Type: i}, {Name: "b", Type: i}, {Name: "k", Type: i}, {Name: "x", Type: i}, {Name: "d", Type: d}, {Name: "s", Type: s}},
		"t1": {{Name: "k1", Type: i}, {Name: "a1", Type: i}, {Name: "a", Type: i}},
		"t2": {{Name: "k2", Type: i}, {Name: "b", Type: i}},
		"u":  {{Name: "b", Type: i}, {Name: "y", Type: i}},
	}
	cat := mapCatalog{}
	for name, cols := range defs {
		tb := storage.NewTableBuilder(name, storage.MustSchema(cols...), storage.BuildOptions{})
		for r := 0; r < 4; r++ {
			row := make([]storage.Value, len(cols))
			for c, def := range cols {
				switch def.Type.Kind {
				case coltypes.KindDate:
					row[c] = storage.DateValue(2021, 5, 10+r)
				case coltypes.KindString:
					row[c] = storage.StrValue([]string{"a", "b", "xy", "x"}[r])
				default:
					row[c] = storage.IntValue(int64(r))
				}
			}
			must(t, tb.Append(row))
		}
		cat[name] = tb.MustBuild()
	}
	return cat
}

// FuzzParser feeds arbitrary strings to the parser, binds every statement it
// accepts against fuzzCatalog, and compiles and executes every plan that
// binds: no stage may panic or loop, and a successful parse must be
// deterministic. The seed corpus covers every statement class
// the generator emits, the binder's aggregate, HAVING and window paths, plus
// the truncation shapes that historically crashed the token cursor at EOF.
func FuzzParser(f *testing.F) {
	for _, s := range []string{
		"SELECT a FROM t",
		"SELECT a, b FROM t WHERE a > 1 AND b < 2 ORDER BY a DESC LIMIT 3",
		"SELECT k1, SUM(a1) FROM t1 JOIN t2 ON k1 = k2 GROUP BY k1 HAVING SUM(a1) > 0",
		"SELECT a FROM t1 LEFT JOIN t2 ON k1 = k2 WHERE b IS NOT NULL",
		"SELECT a FROM t WHERE s LIKE 'x%' OR s IN ('a', 'b')",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 2 OR (a) IS NULL",
		"SELECT a FROM t WHERE d = DATE '2021-05-10'",
		"SELECT a FROM t UNION SELECT b FROM u",
		"SELECT a, RANK() OVER (PARTITION BY k ORDER BY a) FROM t",
		"SELECT CASE WHEN a > 1 THEN 2 ELSE 3 END FROM t",
		"SELECT a FROM t WHERE x IN (SELECT y FROM u)",
		"SELECT -1.5 * (a + 2) / 3 FROM t",
		"SELECT k, CASE WHEN SUM(a) > 1 THEN 1 ELSE 0 END FROM t GROUP BY k",
		"SELECT k, SUM(a) FROM t GROUP BY k HAVING CASE WHEN COUNT(*) > 1 THEN SUM(b) ELSE 0 END > 2 AND MAX(x) < 5",
		"SELECT a, SUM(b) OVER (PARTITION BY k ORDER BY a) FROM t ORDER BY a",
		"SELECT a / 0, (a * 0) / 0 FROM t",
		// Truncation class: inputs that end mid-clause must error, not panic.
		"SELECT INTERVAL '3'",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t ORDER BY",
		"SELECT a FROM t LIMIT",
		"SELECT",
		"SELECT a FROM t WHERE a BETWEEN",
		"SELECT a FROM",
		"",
		"'",
		"SELECT 'unterminated",
	} {
		f.Add(s)
	}
	cat := fuzzCatalog(f)
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatalf("nil statement without error for %q", src)
		}
		stmt2, err2 := Parse(src)
		if err2 != nil || stmt2 == nil {
			t.Fatalf("parse not deterministic for %q: first ok, second err=%v", src, err2)
		}
		node, err := Bind(stmt, cat, storage.LatestSCN)
		if err != nil {
			return
		}
		compiled, err := qcomp.Compile(node)
		if err != nil {
			return
		}
		_, _ = compiled.Execute(qef.NewContext(qef.ModeX86))
	})
}

// TestParserTruncationNoPanic pins the EOF regression deterministically (the
// fuzz corpus above only runs the saved inputs in short mode): the token
// cursor used to run past the slice on inputs ending mid-expression.
func TestParserTruncationNoPanic(t *testing.T) {
	whole := "SELECT a, SUM(b) FROM t1 LEFT JOIN t2 ON k1 = k2 WHERE a BETWEEN 1 AND 2 GROUP BY a ORDER BY a LIMIT 3"
	for i := 0; i <= len(whole); i++ {
		if _, err := Parse(whole[:i]); err != nil {
			continue // errors are expected; panics are the bug
		}
	}
}
