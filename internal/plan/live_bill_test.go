package plan_test

import (
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestLiveFoldsABareProjectIntoItsJoin: a Project of bare column references
// straight over a join stays in the live plan, in any order, renamed or
// repeated, and bills nothing: QComp lowers it to a header move over the
// join's output, so the statement runs with no Stream and no Collect above
// the join, which is the root of its profile. A Project that computes still
// streams the join's output through its pipeline. The first statement re-
// streamed its join's 361 rows only to reorder them (rapid-cli -sf 0.003,
// \engine dpu) before bare Projects over joins became header moves.
func TestLiveFoldsABareProjectIntoItsJoin(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.003, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	const where = " FROM orders, customer WHERE o_custkey = c_custkey AND c_mktsegment = 'BUILDING' AND o_totalprice > 1000"
	for _, c := range []struct {
		name, sql string
		streams   int // Stream spans: pipelines that read a materialized relation
	}{
		{"found", "SELECT o_orderkey, c_name" + where, 0},
		{"reorder", "SELECT c_name, o_orderkey" + where, 0},
		{"rename", "SELECT c_name AS who, o_orderkey" + where, 0},
		{"repeat", "SELECT o_orderkey, c_name, o_orderkey" + where, 0},
		{"semi", "SELECT o_totalprice, o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')", 0},
		{"compute", "SELECT o_orderkey, o_totalprice * 2" + where, 1},
	} {
		res, err := db.Query(c.sql, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, Profile: true, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ops := res.Profile.Summary().Ops
		streams := 0
		for _, op := range ops {
			if op.Name == "Stream" {
				streams++
			}
		}
		if streams != c.streams {
			t.Errorf("%s: %d Stream spans, want %d", c.name, streams, c.streams)
		}
		if root := ops[0].Name; c.streams == 0 && root != "HashJoin" {
			t.Errorf("%s: the profile's root is %s, want the HashJoin", c.name, root)
		}
	}
}
