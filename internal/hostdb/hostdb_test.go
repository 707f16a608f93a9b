package hostdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rapid/internal/coltypes"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

func newTestDB(t testing.TB, rows int) *Database {
	t.Helper()
	db := New()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "id", Type: coltypes.Int()},
		storage.ColumnDef{Name: "grp", Type: coltypes.Int()},
		storage.ColumnDef{Name: "amount", Type: coltypes.Decimal(2)},
		storage.ColumnDef{Name: "tag", Type: coltypes.String()},
	)
	if _, err := db.CreateTable("events", schema); err != nil {
		t.Fatal(err)
	}
	var batch [][]storage.Value
	tags := []string{"red", "green", "blue"}
	for i := 0; i < rows; i++ {
		batch = append(batch, []storage.Value{
			storage.IntValue(int64(i)),
			storage.IntValue(int64(i % 10)),
			storage.DecString(fmt.Sprintf("%d.%02d", i%100, i%100)),
			storage.StrValue(tags[i%3]),
		})
	}
	if _, err := db.Insert("events", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

func loadAll(t testing.TB, db *Database) {
	t.Helper()
	if _, err := db.Load("events", LoadOptions{ChunkRows: 512}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndSCN(t *testing.T) {
	db := newTestDB(t, 100)
	tbl, _ := db.Table("events")
	if tbl.Rows() != 100 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	if db.CurrentSCN() != 1 {
		t.Fatalf("SCN = %d", db.CurrentSCN())
	}
	// Before LOAD, no journal accumulates.
	if tbl.PendingJournal() != 0 {
		t.Fatal("journal before load")
	}
	if _, err := db.CreateTable("events", tbl.Schema()); err == nil {
		t.Fatal("duplicate table should fail")
	}
}

func TestLoadBuildsReplica(t *testing.T) {
	db := newTestDB(t, 1000)
	loadAll(t, db)
	tbl, _ := db.Table("events")
	rt := tbl.Rapid()
	if rt == nil || rt.Rows() != 1000 {
		t.Fatal("replica missing or wrong size")
	}
	// Replica decodes to the same values.
	code := rt.Snapshot(storage.LatestSCN).Chunks()[0].Data(3).Get(4)
	if tag := rt.Meta(3).Dict.Value(int32(code)); tag != "green" { // row 4: 4%3 = 1 -> green
		t.Fatalf("replica tag = %s", tag)
	}
}

func TestJournalAndCheckpoint(t *testing.T) {
	db := newTestDB(t, 100)
	loadAll(t, db)
	tbl, _ := db.Table("events")

	if _, err := db.Insert("events", [][]storage.Value{{
		storage.IntValue(1000), storage.IntValue(1), storage.DecString("9.99"), storage.StrValue("red"),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("events", 5, 1, storage.IntValue(77)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("events", 6); err != nil {
		t.Fatal(err)
	}
	if tbl.PendingJournal() != 3 {
		t.Fatalf("journal = %d", tbl.PendingJournal())
	}
	if err := db.Checkpoint("events"); err != nil {
		t.Fatal(err)
	}
	if tbl.PendingJournal() != 0 {
		t.Fatal("journal not drained")
	}
	// Replica sees the changes.
	snap := tbl.Rapid().Snapshot(storage.LatestSCN)
	if snap.TotalRows() != 100 { // +1 insert -1 delete
		t.Fatalf("replica rows = %d", snap.TotalRows())
	}
}

// TestJournaledInsertIsNotTheLiveRow: the unit a checkpoint stamps with an
// insert's SCN carries the values inserted at that SCN, whatever Update has
// since written into the live host row — the journal owns its copy of the
// row, and so does the replica's unit log after the checkpoint.
func TestJournaledInsertIsNotTheLiveRow(t *testing.T) {
	db := newTestDB(t, 10)
	loadAll(t, db)
	tbl, _ := db.Table("events")
	insSCN, err := db.Insert("events", [][]storage.Value{{
		storage.IntValue(1000), storage.IntValue(20), storage.DecString("9.99"), storage.StrValue("red"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	grpAt := func(scn uint64) int64 {
		t.Helper()
		views := tbl.Rapid().Snapshot(scn).Chunks()
		delta := views[len(views)-1]
		if delta.Rows != 1 || delta.Data(0).Get(0) != 1000 {
			t.Fatalf("snapshot at %d has no inserted row 1000", scn)
		}
		return delta.Data(1).Get(0)
	}
	updSCN, err := db.Update("events", 10, 1, storage.IntValue(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("events"); err != nil {
		t.Fatal(err)
	}
	if got := grpAt(insSCN); got != 20 {
		t.Fatalf("replica at the insert's SCN reads grp = %d, want the inserted 20", got)
	}
	if got := grpAt(updSCN); got != 99 {
		t.Fatalf("replica at the update's SCN reads grp = %d, want 99", got)
	}
	// After the checkpoint the log's row is not the host's either.
	if _, err := db.Update("events", 10, 1, storage.IntValue(7)); err != nil {
		t.Fatal(err)
	}
	if got := grpAt(updSCN); got != 99 {
		t.Fatalf("a host update before its checkpoint changed the replica: grp = %d", got)
	}
}

func TestQueryOffloadAndResults(t *testing.T) {
	db := newTestDB(t, 5000)
	loadAll(t, db)
	res, err := db.Query(`
		SELECT grp, COUNT(*) AS n, SUM(amount) AS total
		FROM events WHERE tag = 'red'
		GROUP BY grp ORDER BY grp`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Offloaded || res.FellBack {
		t.Fatalf("offload state: %+v", res)
	}
	if res.Rel.Rows() != 10 {
		t.Fatalf("groups = %d", res.Rel.Rows())
	}
	// Cross-check against host execution.
	host, err := db.Query(`
		SELECT grp, COUNT(*) AS n, SUM(amount) AS total
		FROM events WHERE tag = 'red'
		GROUP BY grp ORDER BY grp`,
		QueryOptions{Mode: ForceHost})
	if err != nil {
		t.Fatal(err)
	}
	if host.Offloaded {
		t.Fatal("ForceHost must not offload")
	}
	if host.Rel.Rows() != res.Rel.Rows() {
		t.Fatalf("host %d vs rapid %d rows", host.Rel.Rows(), res.Rel.Rows())
	}
	for i := 0; i < res.Rel.Rows(); i++ {
		for c := 0; c < res.Rel.NumCols(); c++ {
			if res.Rel.Col(c).Get(i) != host.Rel.Col(c).Get(i) {
				t.Fatalf("row %d col %d: rapid %d vs host %d", i, c,
					res.Rel.Col(c).Get(i), host.Rel.Col(c).Get(i))
			}
		}
	}
}

func TestCostBasedOffloadDecision(t *testing.T) {
	db := newTestDB(t, 20000)
	loadAll(t, db)
	res, err := db.Query(`SELECT SUM(amount) FROM events`, QueryOptions{Mode: CostBased, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	// A full-scan aggregate over 20k rows should win on RAPID.
	if !res.Offloaded {
		t.Fatalf("expected offload: est rapid %.3gs vs host %.3gs", res.EstRapidSec, res.EstHostSec)
	}
	if res.EstRapidSec >= res.EstHostSec {
		t.Fatal("estimates inconsistent with decision")
	}
}

// TestForceHostIsNotPriced: a plan forced to the host is not compiled for
// RAPID, so it carries no estimates; the same statement under the cost rule
// is priced.
func TestForceHostIsNotPriced(t *testing.T) {
	db := newTestDB(t, 2000)
	loadAll(t, db)
	const q = `SELECT grp, SUM(amount) AS total FROM events GROUP BY grp`
	host, err := db.Query(q, QueryOptions{Mode: ForceHost, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if host.Offloaded || host.EstRapidSec != 0 || host.EstHostSec != 0 {
		t.Fatalf("ForceHost: offloaded %v, est rapid %gs, host %gs; want neither run nor priced", host.Offloaded, host.EstRapidSec, host.EstHostSec)
	}
	priced, err := db.Query(q, QueryOptions{Mode: CostBased, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if priced.EstRapidSec <= 0 || priced.EstHostSec <= 0 {
		t.Fatalf("CostBased: est rapid %gs, host %gs; want both priced", priced.EstRapidSec, priced.EstHostSec)
	}
}

// TestCostBasedOffloadOverAnEmptyTable: a plan over a loaded, empty table
// offloads. The cost model's row estimates are floored at one row, so RAPID's
// per-row terms undercut the host's row-at-a-time ones; priced at 0 rows, both
// engines would cost 0 s and the tie would keep the query on the host.
func TestCostBasedOffloadOverAnEmptyTable(t *testing.T) {
	db := newTestDB(t, 0)
	loadAll(t, db)
	res, err := db.Query(`SELECT id, grp FROM events`, QueryOptions{Mode: CostBased, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Offloaded || res.FellBack || res.Rel.Rows() != 0 {
		t.Fatalf("offloaded %v, fell back %v, %d rows; want an offloaded empty result", res.Offloaded, res.FellBack, res.Rel.Rows())
	}
	if !(0 < res.EstRapidSec && res.EstRapidSec < res.EstHostSec) {
		t.Fatalf("est rapid %.3gs, host %.3gs; want 0 < rapid < host", res.EstRapidSec, res.EstHostSec)
	}
}

func TestAdmissibilityFallback(t *testing.T) {
	db := newTestDB(t, 1000)
	loadAll(t, db)
	// Pending journal makes the query inadmissible.
	if _, err := db.Insert("events", [][]storage.Value{{
		storage.IntValue(2000), storage.IntValue(1), storage.DecString("1.00"), storage.StrValue("red"),
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack || res.Offloaded {
		t.Fatalf("expected fallback: %+v", res)
	}
	// Host result includes the new row (host is source of truth).
	if res.Rel.Col(0).Get(0) != 1001 {
		t.Fatalf("count = %d", res.Rel.Col(0).Get(0))
	}
	// FailOnInadmissible surfaces the error instead.
	if _, err := db.Query(`SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true}); err == nil {
		t.Fatal("expected admissibility error")
	}
	// After checkpointing, offload works and sees the row.
	if err := db.Checkpoint("events"); err != nil {
		t.Fatal(err)
	}
	res2, err := db.Query(`SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Offloaded || res2.Rel.Col(0).Get(0) != 1001 {
		t.Fatalf("post-checkpoint: offloaded=%v count=%d", res2.Offloaded, res2.Rel.Col(0).Get(0))
	}
}

func TestRapidFailureFallback(t *testing.T) {
	db := newTestDB(t, 500)
	loadAll(t, db)
	db.rapidFault = errors.New("hostdb: injected RAPID node failure")
	res, err := db.Query(`SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack || res.Rel.Col(0).Get(0) != 500 {
		t.Fatalf("failure fallback broken: %+v", res)
	}
}

func TestBackgroundCheckpointer(t *testing.T) {
	db := newTestDB(t, 100)
	loadAll(t, db)
	db.StartBackgroundCheckpointer(5 * time.Millisecond)
	defer db.StopBackgroundCheckpointer()
	if _, err := db.Insert("events", [][]storage.Value{{
		storage.IntValue(900), storage.IntValue(0), storage.DecString("0.01"), storage.StrValue("blue"),
	}}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("events")
	deadline := time.Now().Add(2 * time.Second)
	for tbl.PendingJournal() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if tbl.PendingJournal() != 0 {
		t.Fatal("background checkpointer did not drain the journal")
	}
	// Idempotent start/stop.
	db.StartBackgroundCheckpointer(time.Hour)
	db.StopBackgroundCheckpointer()
	db.StopBackgroundCheckpointer()
}

func TestVolcanoEngineDirect(t *testing.T) {
	db := newTestDB(t, 2000)
	loadAll(t, db)
	// Exercise join, sort, limit, window and set ops through SQL on the
	// host engine and validate shapes.
	res, err := db.Query(`
		SELECT tag, COUNT(*) AS n FROM events
		WHERE amount > 0.50 GROUP BY tag ORDER BY n DESC LIMIT 2`,
		QueryOptions{Mode: ForceHost})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Rows() != 2 {
		t.Fatalf("rows = %d", res.Rel.Rows())
	}
	if res.Rel.Col(1).Get(0) < res.Rel.Col(1).Get(1) {
		t.Fatal("not sorted desc")
	}
	// String rendering through the host path keeps dictionaries.
	if got := res.Rel.Render(0, 0); got != "red" && got != "green" && got != "blue" {
		t.Fatalf("tag render = %q", got)
	}
}

func TestHostAndRapidAgreeOnEverything(t *testing.T) {
	db := newTestDB(t, 6000)
	loadAll(t, db)
	queries := []string{
		`SELECT COUNT(*) FROM events`,
		`SELECT SUM(amount), MIN(amount), MAX(amount) FROM events WHERE grp < 5`,
		`SELECT grp, AVG(amount) AS a FROM events GROUP BY grp ORDER BY grp`,
		`SELECT id, amount FROM events WHERE tag = 'blue' AND amount BETWEEN 0.10 AND 0.90 ORDER BY id LIMIT 20`,
		`SELECT tag, SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END) AS z FROM events GROUP BY tag ORDER BY tag`,
		`SELECT grp FROM events WHERE amount > 0.98 UNION SELECT grp FROM events WHERE amount < 0.01`,
	}
	for _, q := range queries {
		host, err := db.Query(q, QueryOptions{Mode: ForceHost})
		if err != nil {
			t.Fatalf("%s: host: %v", q, err)
		}
		rapid, err := db.Query(q, QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU})
		if err != nil {
			t.Fatalf("%s: rapid: %v", q, err)
		}
		if !relEqualUnordered(host.Rel, rapid.Rel, strings.Contains(q, "ORDER BY")) {
			t.Fatalf("%s: host and RAPID disagree\nhost rows=%d rapid rows=%d", q, host.Rel.Rows(), rapid.Rel.Rows())
		}
	}
}

// relEqualUnordered compares relations, respecting order when ordered=true.
func relEqualUnordered(a, b interface {
	Rows() int
	NumCols() int
	Render(int, int) string
}, ordered bool) bool {
	if a.Rows() != b.Rows() || a.NumCols() != b.NumCols() {
		return false
	}
	rowStr := func(r interface{ Render(int, int) string }, i, nc int) string {
		var sb strings.Builder
		for c := 0; c < nc; c++ {
			sb.WriteString(r.Render(i, c))
			sb.WriteByte('|')
		}
		return sb.String()
	}
	if ordered {
		for i := 0; i < a.Rows(); i++ {
			if rowStr(a, i, a.NumCols()) != rowStr(b, i, a.NumCols()) {
				return false
			}
		}
		return true
	}
	counts := map[string]int{}
	for i := 0; i < a.Rows(); i++ {
		counts[rowStr(a, i, a.NumCols())]++
	}
	for i := 0; i < b.Rows(); i++ {
		counts[rowStr(b, i, a.NumCols())]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestWindowAgreesAcrossEngines(t *testing.T) {
	db := newTestDB(t, 3000)
	loadAll(t, db)
	// rank() is deterministic under ties (row_number is not).
	q := `SELECT id, grp, rank() OVER (PARTITION BY grp ORDER BY amount DESC) AS rn
	      FROM events WHERE grp < 4`
	host, err := db.Query(q, QueryOptions{Mode: ForceHost})
	if err != nil {
		t.Fatal(err)
	}
	rapid, err := db.Query(q, QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if !relEqualUnordered(host.Rel, rapid.Rel, false) {
		t.Fatalf("window results disagree: host %d vs rapid %d rows", host.Rel.Rows(), rapid.Rel.Rows())
	}
}

// TestCheckpointAddressesEveryLayout: whatever layout Load built — default
// chunks, 7-row chunks, RLE — and however many tombstones it skipped, every
// journaled update and delete lands on the replica row of the host row it
// names, inserted rows included.
func TestCheckpointAddressesEveryLayout(t *testing.T) {
	for name, opts := range map[string]LoadOptions{
		"single": {}, // the default layout: one chunk holds all 300 rows
		"chunk7": {ChunkRows: 7},
		"rle":    {ChunkRows: 16, TryRLE: true},
	} {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, 300)
			defer db.Close()
			must := func(_ uint64, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, h := range []int{0, 17, 18, 250} { // tombstones Load will skip
				must(db.Delete("events", h))
			}
			if _, err := db.Load("events", opts); err != nil {
				t.Fatal(err)
			}
			row := func(id int64) []storage.Value {
				return []storage.Value{storage.IntValue(id), storage.IntValue(3), storage.DecString("1.00"), storage.StrValue("red")}
			}
			for _, h := range []int{1, 16, 19, 47, 48, 249, 251, 299} {
				must(db.Update("events", h, 0, storage.IntValue(int64(-h))))
			}
			must(db.Delete("events", 20))
			must(db.Delete("events", 298))
			must(db.Insert("events", [][]storage.Value{row(1000), row(1001), row(1002)})) // host rows 300–302
			must(db.Update("events", 301, 0, storage.IntValue(-301)))
			must(db.Delete("events", 300))
			if err := db.Checkpoint("events"); err != nil {
				t.Fatal(err)
			}
			must(db.Update("events", 302, 1, storage.IntValue(9)))
			must(db.Update("events", 21, 0, storage.IntValue(-21)))
			if err := db.Checkpoint("events"); err != nil {
				t.Fatal(err)
			}
			const sql = `SELECT id, grp, tag FROM events ORDER BY id`
			host, err := db.Query(sql, QueryOptions{Mode: ForceHost})
			if err != nil {
				t.Fatal(err)
			}
			rapid, err := db.Query(sql, QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true})
			if err != nil {
				t.Fatal(err)
			}
			if host.Rel.Rows() != 296 || rapid.Rel.Rows() != host.Rel.Rows() {
				t.Fatalf("rows: host %d, RAPID %d, want 296", host.Rel.Rows(), rapid.Rel.Rows())
			}
			for i := 0; i < host.Rel.Rows(); i++ {
				for c := 0; c < 3; c++ {
					if h, r := host.Rel.Render(i, c), rapid.Rel.Render(i, c); h != r {
						t.Fatalf("row %d column %d: host %s, RAPID %s (host row %s %s, RAPID row %s %s)", i, c, h, r,
							host.Rel.Render(i, 0), host.Rel.Render(i, 1), rapid.Rel.Render(i, 0), rapid.Rel.Render(i, 1))
					}
				}
			}
		})
	}
}

// TestCheckpointRejectsUnaddressableRow: a journal entry the replica cannot
// place fails the checkpoint and stays journaled; it is never skipped.
func TestCheckpointRejectsUnaddressableRow(t *testing.T) {
	db := newTestDB(t, 50)
	defer db.Close()
	loadAll(t, db)
	if _, err := db.Update("events", 1, 0, storage.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	ht, _ := db.Table("events")
	ht.mu.Lock()
	ht.loadTombs = []int{-3, -2, -1} // host row 1 now reads as ordinal -2
	ht.mu.Unlock()
	if err := db.Checkpoint("events"); err == nil || ht.PendingJournal() != 1 {
		t.Fatalf("checkpoint of an unaddressable row: err %v, %d entries still pending", err, ht.PendingJournal())
	}
}

// TestCheckpointAllSurvivesOneFailingTable: a table whose checkpoint fails
// does not keep CheckpointAll from the other tables, whatever order the
// tables are visited in, and its failure comes back in the joined error.
func TestCheckpointAllSurvivesOneFailingTable(t *testing.T) {
	db := newTestDB(t, 50)
	defer db.Close()
	loadAll(t, db)
	ht, _ := db.Table("events")
	for _, name := range []string{"other1", "other2"} {
		if _, err := db.CreateTable(name, ht.Schema()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(name, LoadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Update("events", 1, 0, storage.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	ht.mu.Lock()
	ht.loadTombs = []int{-3, -2, -1} // host row 1 now reads as ordinal -2
	ht.mu.Unlock()
	other2, _ := db.Table("other2")
	row := []storage.Value{storage.IntValue(7), storage.IntValue(0), storage.DecString("1.00"), storage.StrValue("red")}
	for i := 0; i < 20; i++ {
		if _, err := db.Insert("other2", [][]storage.Value{row}); err != nil {
			t.Fatal(err)
		}
		err := db.CheckpointAll()
		if other2.PendingJournal() != 0 || ht.PendingJournal() != 1 {
			t.Fatalf("iteration %d: other2 has %d entries pending, events %d; want 0 and 1", i, other2.PendingJournal(), ht.PendingJournal())
		}
		joined, ok := err.(interface{ Unwrap() []error })
		if !ok || len(joined.Unwrap()) != 1 || !strings.HasPrefix(joined.Unwrap()[0].Error(), "hostdb: checkpoint events: ") {
			t.Fatalf("iteration %d: CheckpointAll returned %v; want the events failure alone", i, err)
		}
	}
}

// TestCheckpointFailureKeepsOnlyUnappliedEntries: when one update unit of a
// checkpoint fails, the units applied before it leave the journal and the
// lag gauge, and once the cause is gone a retry applies the rest.
func TestCheckpointFailureKeepsOnlyUnappliedEntries(t *testing.T) {
	db := newTestDB(t, 50)
	defer db.Close()
	loadAll(t, db)
	lag := func() int64 { return db.Metrics().Values()["hostdb_checkpoint_lag_entries"] }
	if _, err := db.Update("events", 40, 0, storage.IntValue(-40)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("events", 1, 0, storage.IntValue(-1)); err != nil {
		t.Fatal(err)
	}
	ht, _ := db.Table("events")
	ht.mu.Lock()
	ht.loadTombs = []int{-3, -2, -1} // host row 40 reads as ordinal 37, host row 1 as -2
	ht.mu.Unlock()
	if err := db.Checkpoint("events"); err == nil || ht.PendingJournal() != 1 || lag() != 1 {
		t.Fatalf("failed checkpoint: err %v, %d entries pending, lag gauge %d; want an error, 1 and 1", err, ht.PendingJournal(), lag())
	}
	ht.mu.Lock()
	ht.loadTombs = nil
	ht.mu.Unlock()
	if err := db.Checkpoint("events"); err != nil || ht.PendingJournal() != 0 || lag() != 0 {
		t.Fatalf("retry after repair: err %v, %d entries pending, lag gauge %d", err, ht.PendingJournal(), lag())
	}
	res, err := db.Query(`SELECT id FROM events WHERE id < 0`, QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Rows() != 2 {
		t.Fatalf("replica holds %d patched ids, want 2 (ordinals 37 and 1)", res.Rel.Rows())
	}
}
