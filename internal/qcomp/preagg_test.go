package qcomp_test

import (
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// preAggRows returns the PreAgg rows of a profile: their details and the
// rows they emitted.
func preAggRows(p *obs.Profile) (details []string, rowsOut int64) {
	for _, op := range p.Summary().Ops {
		if op.Name == "PreAgg" {
			details = append(details, op.Detail)
			rowsOut += op.RowsOut
		}
	}
	return details, rowsOut
}

// TestTPCHPreAggDecisions pins which TPC-H group-bys pre-aggregate their scan
// units at SF 0.05, the benchmark's scale. On the SoC only Q18's sub-query
// arms: lineitem is stored in orderkey order, so no 1024-row chunk spans more
// than 282 orderkeys, and the zone-map bound on what the step
// emits is the collected rows. The other partitioned group-bys (Q3, Q10,
// Q18's outer one) read join outputs, which have no zone maps. A 4-node
// tray's 4096-row hash shards span as many orderkeys as they have rows, and
// a shipdate-clustered lineitem spreads every chunk's orderkeys over the
// whole table: neither arms.
func TestTPCHPreAggDecisions(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	opts := hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, Profile: true, NoCache: true}
	var q18 string
	for _, q := range tpch.Queries() {
		res, err := db.Query(q.SQL, opts)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		details, rows := preAggRows(res.Profile)
		if q.Name != "Q18" {
			if details != nil {
				t.Errorf("%s: pre-aggregation %q, want none", q.Name, details)
			}
			continue
		}
		q18 = q.SQL
		// The widest chunk spans 282 orderkeys; every orderkey of a chunk's
		// range is in it, so the zone-map bound is exactly what the step
		// emits.
		if want := "(keys=1, slots=282)"; len(details) != 1 || details[0] != want {
			t.Errorf("Q18: pre-aggregation %q, want %q", details, want)
		}
		if rows != 75211 {
			t.Errorf("Q18: the pre-aggregation emitted %d rows, want 75211", rows)
		}
	}

	tray, err := cluster.New(db, cluster.Config{Nodes: 4, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tray.Close()
	for _, name := range tpch.TableNames() {
		if err := tray.Load(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tray.Query(q18, cluster.QueryOptions{Mode: qef.ModeDPU, Trace: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range res.Trace {
		for i, p := range step.NodeProfiles {
			if p == nil {
				continue
			}
			if details, _ := preAggRows(p); details != nil {
				t.Errorf("4-node tray, %s on node %d: pre-aggregation %q, want none", step.Label, i, details)
			}
		}
	}

	clustered := hostdb.New()
	defer clustered.Close()
	if err := tpch.PopulateHostDB(clustered, tpch.Config{ScaleFactor: 0.05, Seed: 42, ClusterByShipDate: true}); err != nil {
		t.Fatal(err)
	}
	res2, err := clustered.Query("SELECT l_orderkey, SUM(l_quantity) FROM lineitem GROUP BY l_orderkey", opts)
	if err != nil {
		t.Fatal(err)
	}
	if details, _ := preAggRows(res2.Profile); details != nil {
		t.Errorf("shipdate-clustered lineitem: pre-aggregation %q, want none", details)
	}
}
