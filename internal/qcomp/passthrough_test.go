package qcomp_test

import (
	"fmt"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// passThrough returns the Stream spans of p that head a pipeline doing no
// work: between the Stream and a Collect terminal there are only Projects
// that keep columns. A keeping Project bills no cycle, an evaluating one
// bills its expressions on every row, so a Project is judged only once rows
// have crossed it.
func passThrough(p *obs.Profile) []string {
	ops := p.Summary().Ops
	var out []string
	for _, op := range ops {
		if op.Name != "Stream" {
			continue
		}
		up := ops[op.Parent]
		for up.Name == "Project" && up.Cycles == 0 && up.RowsIn > 0 {
			up = ops[up.Parent]
		}
		if up.Name == "Collect" {
			out = append(out, fmt.Sprintf("Stream #%d → Collect #%d (%d rows)", op.ID, up.ID, op.RowsOut))
		}
	}
	return out
}

// TestNoPassThroughPipelines: a relation is materialized once. Where a join,
// a partitioned group-by, an aggregate or an exchange output feeds a consumer
// through bare columns only, the consumer takes the relation's columns as
// they are; no pipeline streams it out of DRAM only to collect it back. Every
// TPC-H statement is checked in ModeDPU on one SoC and on a 4-node tray, in
// each node fragment and each coordinator fragment.
func TestNoPassThroughPipelines(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.01, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	tray, err := cluster.New(db, cluster.Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tray.Close()
	for _, name := range tpch.TableNames() {
		if err := tray.Load(name, nil); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	for _, q := range tpch.Queries() {
		res, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, Profile: true, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, s := range passThrough(res.Profile) {
			t.Errorf("%s on one SoC: %s", q.Name, s)
		}
		tr, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU, Trace: true, NoCache: true})
		if err != nil {
			t.Fatalf("%s on the tray: %v", q.Name, err)
		}
		for _, st := range tr.Trace {
			for node, p := range st.NodeProfiles {
				for _, s := range passThrough(p) {
					t.Errorf("%s, %s on node %d: %s", q.Name, st.Label, node, s)
				}
			}
			for _, s := range passThrough(st.Coord) {
				t.Errorf("%s, %s: %s", q.Name, st.Label, s)
			}
		}
	}
}
