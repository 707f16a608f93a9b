package sqlparse_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/plan"
	"rapid/internal/sqlparse"
	"rapid/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tpch_plans.golden")

// TestTPCHPlansGolden holds every TPC-H statement's bound plan, and the plan
// it executes, narrowed to its live columns (plan.Live), to the committed
// text: for each, plan.Format, then each Scan's table and columns in scan
// order. Both are pure functions of the statement and the catalog, so a
// difference in the first is a binder edit and one in the second alone a
// liveness edit: regenerate with
//
//	go test ./internal/sqlparse -run TPCHPlansGolden -update
//
// and review the diff.
func TestTPCHPlansGolden(t *testing.T) {
	db := hostdb.New()
	t.Cleanup(db.Close)
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.005, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, q := range tpch.Queries() {
		stmt, err := sqlparse.Parse(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		bound, err := sqlparse.Bind(stmt, db, db.CurrentSCN())
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		live, err := plan.Live(bound)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		fmt.Fprintf(&sb, "== %s\n%s", q.Name, plan.Format(bound))
		writeScans(&sb, bound)
		fmt.Fprintf(&sb, "-- live\n%s", plan.Format(live))
		writeScans(&sb, live)
	}
	got := sb.String()
	path := filepath.Join("testdata", "tpch_plans.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		w, g := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		t.Fatalf("plans drifted from %s at line %d (regenerate with -update and review the diff):\n  - %s\n  + %s",
			path, i+1, strings.Join(w[i:min(i+1, len(w))], ""), strings.Join(g[i:min(i+1, len(g))], ""))
	}
}

// writeScans lists every Scan under n, depth first: its table and the names
// of the columns it reads, in scan order.
func writeScans(sb *strings.Builder, n plan.Node) {
	if s, ok := n.(*plan.Scan); ok {
		names := make([]string, len(s.Cols))
		for i, c := range s.Cols {
			names[i] = s.Table.Schema().Col(c).Name
		}
		fmt.Fprintf(sb, "scan %s: %s\n", s.Table.Name(), strings.Join(names, ", "))
	}
	for _, c := range n.Children() {
		writeScans(sb, c)
	}
}
