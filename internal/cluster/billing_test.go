package cluster

import (
	"context"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/sqlparse"
	"rapid/internal/storage"
)

// TestTrayBillsDMSDescriptors pins the shared billing tail on the tray: a
// ModeDPU tray query moves rapid_dms_descriptors_total by exactly the
// descriptors its node contexts and its coordinator context executed. (The
// tray used to skip this counter, so it under-reported on every distributed
// execution.) The HAVING runs at the coordinator, over the merged groups, so
// the coordinator runs a pipeline of its own: selecting the groups' columns
// is a header move, which bills no descriptor.
func TestTrayBillsDMSDescriptors(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "k", Type: coltypes.Int()},
		storage.ColumnDef{Name: "g", Type: coltypes.Int()},
		storage.ColumnDef{Name: "v", Type: coltypes.Int()},
	)
	if _, err := db.CreateTable("facts", schema); err != nil {
		t.Fatal(err)
	}
	var rows [][]storage.Value
	for i := 0; i < 3000; i++ {
		rows = append(rows, []storage.Value{
			storage.IntValue(int64(i)), storage.IntValue(int64(i % 11)), storage.IntValue(int64(i % 97)),
		})
	}
	if _, err := db.Insert("facts", rows); err != nil {
		t.Fatal(err)
	}
	tray, err := New(db, Config{Nodes: 3, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tray.Close()
	if err := tray.Load("facts", nil); err != nil {
		t.Fatal(err)
	}

	stmt, err := sqlparse.Parse(`SELECT g, SUM(v) FROM facts WHERE k < 2500 GROUP BY g HAVING SUM(v) > 0 ORDER BY g`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sqlparse.Bind(stmt, engine{tray}, db.CurrentSCN())
	if err != nil {
		t.Fatal(err)
	}
	counter := tray.Metrics().Counter("rapid_dms_descriptors_total")
	before := counter.Value()
	res, q, err := tray.execute(context.Background(), bound, QueryOptions{Mode: qef.ModeDPU, Trace: true}, obs.ActiveHandle{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Rows() != 11 {
		t.Fatalf("rows = %d, want 11 groups", res.Rel.Rows())
	}
	descriptors := func(ctx *qef.Context) int64 { return ctx.Usage().Descriptors() }
	// Each context's traced fragments add up to its whole-query descriptors.
	fragments := make([]int64, len(q.nctx)+1)
	for _, st := range res.Trace {
		if st.Coord != nil {
			fragments[len(q.nctx)] += st.Coord.Totals().DMSDescriptors
		}
		for i, p := range st.NodeProfiles {
			if p != nil {
				fragments[i] += p.Totals().DMSDescriptors
			}
		}
	}
	var nodes int64
	for i, ctx := range q.nctx {
		nodes += descriptors(ctx)
		if fragments[i] != descriptors(ctx) {
			t.Errorf("node %d: fragments sum to %d descriptors, whole query billed %d", i, fragments[i], descriptors(ctx))
		}
	}
	coord := descriptors(q.coord)
	if fragments[len(q.nctx)] != coord {
		t.Errorf("coordinator: fragments sum to %d descriptors, whole query billed %d", fragments[len(q.nctx)], coord)
	}
	if nodes == 0 || coord == 0 {
		t.Fatalf("node descriptors = %d, coordinator = %d; the query must exercise both", nodes, coord)
	}
	if got := counter.Value() - before; got != nodes+coord {
		t.Fatalf("rapid_dms_descriptors_total moved by %d, want %d (nodes %d + coordinator %d)", got, nodes+coord, nodes, coord)
	}
}
