package plan_test

import (
	"reflect"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/plan"
	"rapid/internal/sqlparse"
	"rapid/internal/tpch"
)

// tpchPlans binds every TPC-H statement against a small host database.
func tpchPlans(t *testing.T) map[string]plan.Node {
	t.Helper()
	db := hostdb.New()
	t.Cleanup(db.Close)
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	plans := make(map[string]plan.Node)
	for _, q := range tpch.Queries() {
		stmt, err := sqlparse.Parse(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if plans[q.Name], err = sqlparse.Bind(stmt, db, db.CurrentSCN()); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	return plans
}

// shared reports whether two slices are the same slice, not equal copies.
func shared[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// checkRebuilt walks a rewritten tree beside its original: every operator is
// a fresh struct of the same type that shares the original's predicates,
// expressions and key slices.
func checkRebuilt(t *testing.T, name string, orig, got plan.Node) {
	t.Helper()
	if reflect.TypeOf(orig) != reflect.TypeOf(got) {
		t.Fatalf("%s: %T rebuilt as %T", name, orig, got)
	}
	if orig == got {
		t.Errorf("%s: %s was not rebuilt although a leaf below it changed", name, orig)
	}
	ok := true
	switch o := orig.(type) {
	case *plan.Scan:
		g := got.(*plan.Scan)
		ok = o.Table == g.Table && shared(o.Cols, g.Cols)
	case *plan.Filter:
		ok = o.Pred == got.(*plan.Filter).Pred
	case *plan.Project:
		g := got.(*plan.Project)
		ok = shared(o.Exprs, g.Exprs) && shared(o.Names, g.Names)
	case *plan.Join:
		g := got.(*plan.Join)
		ok = o.Type == g.Type && shared(o.LeftKeys, g.LeftKeys) && shared(o.RightKeys, g.RightKeys)
	case *plan.GroupBy:
		g := got.(*plan.GroupBy)
		ok = shared(o.Keys, g.Keys) && shared(o.Aggs, g.Aggs)
	case *plan.Sort:
		ok = shared(o.Keys, got.(*plan.Sort).Keys)
	case *plan.Limit:
		ok = o.K == got.(*plan.Limit).K
	case *plan.SetOp:
		ok = o.Kind == got.(*plan.SetOp).Kind
	case *plan.Window:
		g := got.(*plan.Window)
		ok = o.Func == g.Func && o.ValueCol == g.ValueCol && o.Name == g.Name &&
			shared(o.PartitionBy, g.PartitionBy) && shared(o.OrderBy, g.OrderBy)
	default:
		t.Fatalf("%s: unexpected node %T", name, orig)
	}
	if !ok {
		t.Errorf("%s: %s does not share its fields with the original", name, orig)
	}
	kids, rebuilt := orig.Children(), got.Children()
	if len(kids) != len(rebuilt) {
		t.Fatalf("%s: %s has %d children, rebuilt %d", name, orig, len(kids), len(rebuilt))
	}
	for i := range kids {
		checkRebuilt(t, name, kids[i], rebuilt[i])
	}
}

// TestMapLeavesRebuildsOnlyWhatChanged: over every TPC-H plan, a leaf function
// that returns its argument visits every scan and hands back the very tree;
// one that replaces each scan by an equal one yields a tree of fresh nodes
// that formats the same and shares everything immutable with the original.
func TestMapLeavesRebuildsOnlyWhatChanged(t *testing.T) {
	for name, root := range tpchPlans(t) {
		leaves := 0
		same, err := plan.MapLeaves(root, func(l plan.Node) (plan.Node, error) {
			leaves++
			return l, nil
		})
		if err != nil || same != root {
			t.Errorf("%s: identity rewrite returned another tree (err %v)", name, err)
		}
		fresh, err := plan.MapLeaves(root, func(l plan.Node) (plan.Node, error) {
			s := l.(*plan.Scan)
			leaves--
			return plan.NewScan(s.Table, s.SCN, s.Cols), nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if leaves != 0 {
			t.Errorf("%s: the two rewrites saw different leaf counts (off by %d)", name, leaves)
		}
		if got, want := plan.Format(fresh), plan.Format(root); got != want {
			t.Errorf("%s: rewritten plan formats differently:\n%s\nwant:\n%s", name, got, want)
		}
		checkRebuilt(t, name, root, fresh)
	}
}

// TestCloneAtSCNRestampsEveryScan: the clone reads at the new SCN everywhere,
// the original is untouched, and nothing but the scans' SCN differs.
func TestCloneAtSCNRestampsEveryScan(t *testing.T) {
	for name, root := range tpchPlans(t) {
		const scn = 1 << 40
		clone, err := plan.CloneAtSCN(root, scn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRebuilt(t, name, root, clone)
		for _, tc := range []struct {
			tree plan.Node
			at   func(uint64) bool
		}{
			{clone, func(s uint64) bool { return s == scn }},
			{root, func(s uint64) bool { return s != scn }},
		} {
			plan.MapLeaves(tc.tree, func(l plan.Node) (plan.Node, error) {
				if s := l.(*plan.Scan); !tc.at(s.SCN) {
					t.Errorf("%s: %s reads at SCN %d", name, s, s.SCN)
				}
				return l, nil
			})
		}
	}
}

// TestWithChildrenRejectsWhatItCannotRebuild: a leaf has no children to
// replace, and the arity must match the operator's.
func TestWithChildrenRejectsWhatItCannotRebuild(t *testing.T) {
	root := tpchPlans(t)["Q3"]
	var scan plan.Node
	plan.MapLeaves(root, func(l plan.Node) (plan.Node, error) { scan = l; return l, nil })
	if _, err := plan.WithChildren(scan); err == nil {
		t.Error("WithChildren rebuilt a Scan")
	}
	join := &plan.Join{Left: scan, Right: scan, LeftKeys: []int{0}, RightKeys: []int{0}}
	if _, err := plan.WithChildren(join, scan); err == nil {
		t.Error("WithChildren rebuilt a Join over one child")
	}
	if got, err := plan.WithChildren(join, scan, scan); err != nil || got == plan.Node(join) {
		t.Errorf("WithChildren(join, 2 children) = %v, %v; want a fresh join", got, err)
	}
}
