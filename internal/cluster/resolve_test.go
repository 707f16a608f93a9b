package cluster

import (
	"context"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// TestResolveRetargetsABoundPlanAtTheCurrentLoad: of a bound plan's Scans,
// which point at the shards of the load the bind saw, resolve reads only the
// table names. dims is hash-sharded when the plan is bound and re-loaded
// replicated afterwards (no host mutation, so nothing else reloads); the next
// execution of the plan bound before the reload must plan against the new
// load — the join co-located with no exchange — not against the layout its
// old Scans carry, under which every node would ship its full copy of dims.
func TestResolveRetargetsABoundPlanAtTheCurrentLoad(t *testing.T) {
	db := hostdb.New()
	t.Cleanup(db.Close)
	mk := func(name string, rows [][]storage.Value, cols ...storage.ColumnDef) {
		if _, err := db.CreateTable(name, storage.MustSchema(cols...)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	var facts, dims [][]storage.Value
	for i := 0; i < 3000; i++ {
		facts = append(facts, []storage.Value{storage.IntValue(int64(i % 97)), storage.IntValue(int64(i % 11))})
	}
	for i := 0; i < 11; i++ {
		dims = append(dims, []storage.Value{storage.IntValue(int64(i)), storage.IntValue(int64(i * 10))})
	}
	mk("facts", facts, storage.ColumnDef{Name: "k", Type: coltypes.Int()}, storage.ColumnDef{Name: "g", Type: coltypes.Int()})
	mk("dims", dims, storage.ColumnDef{Name: "dg", Type: coltypes.Int()}, storage.ColumnDef{Name: "w", Type: coltypes.Int()})
	tray, err := New(db, Config{Nodes: 2, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tray.Close)
	for _, name := range []string{"facts", "dims"} {
		if err := tray.Load(name, nil); err != nil {
			t.Fatal(err)
		}
	}

	bound, _, _ := planned(t, tray, `SELECT g, SUM(w), COUNT(*) FROM facts, dims WHERE g = dg GROUP BY g`)
	run := func() (res *Result, moves int) {
		t.Helper()
		res, _, err := tray.execute(context.Background(), bound, QueryOptions{Mode: qef.ModeX86}, obs.ActiveHandle{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range res.Exchanges {
			if ex.Kind != "gather" {
				moves++
			}
		}
		return res, moves
	}
	sharded, moves := run()
	if moves == 0 {
		t.Fatalf("facts ⋈ dims ran without an exchange while dims was hash-sharded: %+v", sharded.Exchanges)
	}
	if err := tray.Load("dims", &ShardSpec{Policy: storage.Replicated}); err != nil {
		t.Fatal(err)
	}
	repl, moves := run()
	if moves != 0 {
		t.Errorf("join against the replicated dims still moved data in %d exchanges: %+v", moves, repl.Exchanges)
	}
	bag := func(rel *ops.Relation) []string {
		rows := make([][]int64, rel.Rows())
		for r := range rows {
			for c := 0; c < rel.NumCols(); c++ {
				rows[r] = append(rows[r], rel.Get(r, c))
			}
		}
		return tupleBag(rows)
	}
	if a, b := bag(sharded.Rel), bag(repl.Rel); !sameTupleBags(a, b) {
		t.Fatalf("dims sharded vs replicated: bags differ\nsharded:    %v\nreplicated: %v", a, b)
	}
}
