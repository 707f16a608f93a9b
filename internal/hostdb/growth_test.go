package hostdb_test

import (
	"math/rand"
	"testing"
	"time"

	"rapid/internal/hostdb"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/sqlparse"
	"rapid/internal/storage"
	"rapid/internal/tpch"
)

// TestCompileCostFlatOverCheckpointedRounds: a write round of the
// htap_refresh shape (512 single-cell updates and one insert, checkpointed
// as 513 update units) must not make later compiles on the table dearer.
// Before the version index every qcomp.Compile walked chunks × units twice;
// 15 more rounds multiplied its time (≈ 10 ms per round at SF 0.05) and its
// allocations.
func TestCompileCostFlatOverCheckpointedRounds(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	cfg := tpch.Config{ScaleFactor: 0.01, Seed: 7}
	if err := tpch.PopulateHostDB(db, cfg); err != nil {
		t.Fatal(err)
	}
	ht, err := db.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	schema, baseRows := ht.Schema(), ht.Rows()
	qty, disc := schema.ColIndex("l_quantity"), schema.ColIndex("l_discount")
	extra := tpch.Generate(cfg).Tables["lineitem"][:1]
	rng := rand.New(rand.NewSource(1))
	round := func() {
		t.Helper()
		for i := 0; i < 512; i++ {
			col, val := qty, storage.IntValue(int64(rng.Intn(50)+1))
			if i%2 == 1 {
				col, val = disc, storage.DecString("0.05")
			}
			if _, err := db.Update("lineitem", rng.Intn(baseRows), col, val); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Insert("lineitem", extra); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint("lineitem"); err != nil {
			t.Fatal(err)
		}
	}
	q6, _ := tpch.QueryByName("Q6")
	stmt, err := sqlparse.Parse(q6.SQL)
	if err != nil {
		t.Fatal(err)
	}
	// compileCost binds Q6 at the current SCN and returns the fastest of 20
	// compiles and the allocations of one, after a first compile has read
	// the version (the materialisation is paid once per version, not per
	// compile).
	compileCost := func() (time.Duration, float64) {
		t.Helper()
		var node plan.Node
		compile := func() {
			if _, err := qcomp.Compile(node); err != nil {
				t.Fatal(err)
			}
		}
		if node, err = sqlparse.Bind(stmt, db, db.CurrentSCN()); err != nil {
			t.Fatal(err)
		}
		compile()
		best := time.Duration(1 << 62)
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			compile()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best, testing.AllocsPerRun(5, compile)
	}
	round()
	t1, a1 := compileCost()
	for i := 1; i < 16; i++ {
		round()
	}
	if units := ht.Rapid().Tracker().PendingUnits(); units != 16*513 {
		t.Fatalf("16 rounds left %d update units, want %d", units, 16*513)
	}
	t16, a16 := compileCost()
	t.Logf("qcomp.Compile(Q6): %v / %.0f allocs after 1 round, %v / %.0f allocs after 16", t1, a1, t16, a16)
	// AllocsPerRun counts the whole process, so leave room for a background
	// allocation or two; walking the units per chunk added ≈ 100 per round.
	if a16 > a1+8 {
		t.Errorf("compile allocates %.0f objects after 16 rounds, %.0f after 1", a16, a1)
	}
	// 100 µs of slack keeps scheduler noise on a ~50 µs compile out of the
	// ratio; the growth this pins was milliseconds.
	if t16 > 2*t1+100*time.Microsecond {
		t.Errorf("compile took %v after 16 rounds, %v after 1: more than 2×", t16, t1)
	}
}

// TestLoadAllocsPerRow: LOAD moves host rows into the replica's column
// buffers as they are, so what it allocates is per chunk and per column
// (vectors, zones, buffer growth), not per row. Decoding each row to values
// and encoding it back cost one allocation per row and more (311 k objects
// for the 300 k-row lineitem at SF 0.05; now ≈ 11 k, 0.035 a row).
func TestLoadAllocsPerRow(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.01, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ht, err := db.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := db.Load("lineitem", hostdb.LoadOptions{ScanThreads: 4, ChunkRows: 1024}); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / float64(ht.Rows())
	t.Logf("Load(lineitem): %.0f allocations for %d rows, %.3f a row", allocs, ht.Rows(), perRow)
	if perRow > 1.0/15 {
		t.Errorf("Load allocates %.3f objects a row (%.0f for %d rows), budget 1/15", perRow, allocs, ht.Rows())
	}
}
