package hostdb

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapid/internal/coltypes"
	"rapid/internal/obs"
	"rapid/internal/qcache"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

func cacheTestDB(t testing.TB, rows int) *Database {
	t.Helper()
	db := newTestDB(t, rows)
	loadAll(t, db)
	db.EnableQueryCache(qcache.Config{})
	return db
}

const cacheSQL = "SELECT grp, SUM(amount) FROM events WHERE id < 900 GROUP BY grp"

func TestCacheHitServesIdenticalResultWithZeroBilling(t *testing.T) {
	db := cacheTestDB(t, 2000)
	defer db.Close()
	opts := QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU, FailOnInadmissible: true}

	cold, err := db.Query(cacheSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold run cache = %q, want miss", cold.Cache)
	}
	if cold.Cycles == 0 || cold.EnergyNJ == 0 {
		t.Fatalf("cold DPU run must bill cycles and energy: %d / %d", cold.Cycles, cold.EnergyNJ)
	}
	// Whitespace/case variant of the same query: must hit via normalization.
	hot, err := db.Query("select   GRP, sum(AMOUNT)\nfrom events where id < 900 group by grp", opts)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Cache != "hit" {
		t.Fatalf("hot run cache = %q, want hit", hot.Cache)
	}
	if hot.Cycles != 0 || hot.EnergyNJ != 0 || hot.RapidSimSeconds != 0 {
		t.Fatalf("hit must bill ~zero: cycles=%d energy=%d sim=%v", hot.Cycles, hot.EnergyNJ, hot.RapidSimSeconds)
	}
	if hot.CyclesSaved != cold.Cycles || hot.EnergySavedNJ != cold.EnergyNJ {
		t.Fatalf("saved accounting: got %d/%d want %d/%d", hot.CyclesSaved, hot.EnergySavedNJ, cold.Cycles, cold.EnergyNJ)
	}
	if hot.Rel != cold.Rel {
		t.Fatal("hit must share the cached relation")
	}
	if !hot.Offloaded {
		t.Fatal("hit must preserve the Offloaded flag of the producing run")
	}
	// Different literal: different parameter vector, distinct entry.
	other, err := db.Query("SELECT grp, SUM(amount) FROM events WHERE id < 500 GROUP BY grp", opts)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cache != "miss" {
		t.Fatalf("different literal must miss, got %q", other.Cache)
	}
	s := db.QueryCache().Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPlanCacheServesTemplateAcrossLiterals(t *testing.T) {
	db := cacheTestDB(t, 1000)
	defer db.Close()
	opts := QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true}
	run := func(sql string) *QueryResult {
		t.Helper()
		r, err := db.Query(sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := run("SELECT COUNT(*) FROM events WHERE id < 100")
	b := run("SELECT COUNT(*) FROM events WHERE id < 200")
	if a.Cache != "miss" || b.Cache != "miss" {
		t.Fatalf("distinct literals must both miss the result cache: %q %q", a.Cache, b.Cache)
	}
	// Result-cache keys include the parameter vector, so b executes afresh;
	// its template still normalizes identically.
	if a.Rel.Col(0).Get(0) != 100 || b.Rel.Col(0).Get(0) != 200 {
		t.Fatalf("wrong answers: %d / %d", a.Rel.Col(0).Get(0), b.Rel.Col(0).Get(0))
	}
	// Exact repeat of a: result hit.
	if r := run("SELECT COUNT(*) FROM events WHERE id < 100"); r.Cache != "hit" {
		t.Fatalf("repeat = %q, want hit", r.Cache)
	}
}

func TestCacheInvalidatedByDMLAndCheckpoint(t *testing.T) {
	db := cacheTestDB(t, 1000)
	defer db.Close()
	opts := QueryOptions{Mode: CostBased, RapidMode: qef.ModeX86}
	sql := "SELECT COUNT(*) FROM events"

	first, err := db.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || first.Rel.Col(0).Get(0) != 1000 {
		t.Fatalf("cold: cache=%q rows=%d", first.Cache, first.Rel.Col(0).Get(0))
	}
	if r, _ := db.Query(sql, opts); r.Cache != "hit" {
		t.Fatalf("warm: %q", r.Cache)
	}
	// DML bumps the host mutation SCN: the entry must go stale, and the
	// post-DML read must see the new row immediately (inadmissible offload
	// falls back to the live host engine).
	if _, err := db.Insert("events", [][]storage.Value{{
		storage.IntValue(5000), storage.IntValue(1), storage.DecString("1.00"), storage.StrValue("red"),
	}}); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache != "stale" {
		t.Fatalf("post-DML cache = %q, want stale", after.Cache)
	}
	if got := after.Rel.Col(0).Get(0); got != 1001 {
		t.Fatalf("post-DML count = %d, want 1001", got)
	}
	if !after.FellBack {
		t.Fatal("expected host fallback while the journal is pending")
	}
	// Fallback results are never cached: the next run misses again (the
	// stale entry was evicted, nothing replaced it).
	again, _ := db.Query(sql, opts)
	if again.Cache != "miss" || again.Rel.Col(0).Get(0) != 1001 {
		t.Fatalf("fallback must not be cached: cache=%q", again.Cache)
	}
	// Checkpoint propagates the journal (replica epoch bumps); the query
	// offloads again and its result is cacheable.
	if err := db.Checkpoint("events"); err != nil {
		t.Fatal(err)
	}
	warm1, _ := db.Query(sql, opts)
	warm2, _ := db.Query(sql, opts)
	if warm1.Cache != "miss" || !warm1.Offloaded {
		t.Fatalf("post-checkpoint: cache=%q offloaded=%v", warm1.Cache, warm1.Offloaded)
	}
	if warm2.Cache != "hit" || warm2.Rel.Col(0).Get(0) != 1001 {
		t.Fatalf("post-checkpoint warm: cache=%q", warm2.Cache)
	}
}

func TestNoCacheBypassesAndCountsBypass(t *testing.T) {
	db := cacheTestDB(t, 500)
	defer db.Close()
	opts := QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true}
	if _, err := db.Query(cacheSQL, opts); err != nil {
		t.Fatal(err)
	}
	opts.NoCache = true
	r, err := db.Query(cacheSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "bypass" {
		t.Fatalf("NoCache run cache = %q, want bypass", r.Cache)
	}
	if s := db.QueryCache().Stats(); s.Bypasses != 1 {
		t.Fatalf("bypasses = %d", s.Bypasses)
	}
	// And the bypass run must not have refreshed or used the entry: a
	// normal run still hits the original.
	opts.NoCache = false
	if r, _ := db.Query(cacheSQL, opts); r.Cache != "hit" {
		t.Fatalf("want hit after bypass, got %q", r.Cache)
	}
}

func TestCacheHitBypassesSchedulerAdmission(t *testing.T) {
	// One admission slot, no queue: a second concurrent query would shed.
	// A cache hit must succeed even while the only slot is held.
	reg := obs.NewRegistry()
	db := NewWithConfig(reg, sched.Config{MaxConcurrent: 1, MaxQueued: 0})
	seedTestDB(t, db, 500)
	db.EnableQueryCache(qcache.Config{})
	defer db.Close()
	opts := QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true}
	if _, err := db.Query(cacheSQL, opts); err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot directly.
	adm, err := db.Scheduler().Admit(context.Background(), sched.Request{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Release()
	r, err := db.Query(cacheSQL, opts)
	if err != nil {
		t.Fatalf("cache hit must not need admission: %v", err)
	}
	if r.Cache != "hit" {
		t.Fatalf("cache = %q", r.Cache)
	}
}

// seedTestDB fills an existing database with the standard events table.
func seedTestDB(t testing.TB, db *Database, rows int) {
	t.Helper()
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
			storage.DecString("1.50"),
			storage.StrValue(tags[i%3]),
		})
	}
	if _, err := db.Insert("events", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load("events", LoadOptions{ChunkRows: 256}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleflightStormExecutesOncePerEpoch(t *testing.T) {
	db := cacheTestDB(t, 3000)
	defer db.Close()
	opts := QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true}
	// Warm up the scheduler's lazy worker pool (those goroutines live until
	// db.Close) so the leak check below only sees storm-created goroutines.
	if _, err := db.Query("SELECT COUNT(*) FROM events", QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	storm := func(wantRows int64) {
		t.Helper()
		var wg sync.WaitGroup
		var failures atomic.Int64
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := db.Query("SELECT COUNT(*) FROM events WHERE grp < 7", opts)
				if err != nil || r.Rel.Col(0).Get(0) != wantRows {
					failures.Add(1)
				}
			}()
		}
		wg.Wait()
		if failures.Load() != 0 {
			t.Fatalf("%d clients failed or saw wrong counts", failures.Load())
		}
	}
	// Executions are counted via the journal: only a flight leader runs the
	// engine, and only its record reports cache miss/stale — every other
	// client ends as a store hit or a shared flight ("hit").
	executions := func() (execs, hits int) {
		for _, r := range db.QueryJournal().Records() {
			switch r.Cache {
			case "miss", "stale":
				execs++
			case "hit":
				hits++
			}
		}
		return
	}
	storm(2100) // 3000 rows, grp<7 -> 7/10
	if execs, hits := executions(); execs != 1 || hits != 63 {
		t.Fatalf("epoch 1: %d executions, %d hits; want 1 and 63 (stats %+v)", execs, hits, db.QueryCache().Stats())
	}
	// New epoch: DML + checkpoint, storm again — exactly one more execution.
	if _, err := db.Insert("events", [][]storage.Value{{
		storage.IntValue(9000), storage.IntValue(0), storage.DecString("1.00"), storage.StrValue("red"),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("events"); err != nil {
		t.Fatal(err)
	}
	storm(2101)
	if execs, hits := executions(); execs != 2 || hits != 126 {
		t.Fatalf("after 2 epochs: %d executions, %d hits; want 2 and 126 (stats %+v)", execs, hits, db.QueryCache().Stats())
	}
	// Goroutine-leak check: allow slack for runtime/test goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+10 {
		t.Fatalf("goroutine leak: %d before storm, %d after", before, g)
	}
}

// TestNoStaleHitUnderConcurrentDML is the -race pin for the epoch ordering
// fix: Tracker.Apply bumps the table epoch BEFORE publishing the unit, so
// a read that starts after a checkpointed update completes can never be
// served a pre-update cached result. The writer advances the table through
// generations while readers storm the same fingerprint; after each
// generation is fully published, a probe read must see the new count.
func TestNoStaleHitUnderConcurrentDML(t *testing.T) {
	db := cacheTestDB(t, 1000)
	defer db.Close()
	opts := QueryOptions{Mode: CostBased, RapidMode: qef.ModeX86}
	sql := "SELECT COUNT(*) FROM events"

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var low atomic.Int64 // lowest acceptable count, advanced by the writer
	low.Store(1000)
	for i := 0; i < 8; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := low.Load()
				r, err := db.Query(sql, opts)
				if err != nil {
					t.Error(err)
					return
				}
				got := r.Rel.Col(0).Get(0)
				// Monotonicity: a read issued when `low` was already
				// published must never see fewer rows (a stale hit would).
				if got < floor {
					t.Errorf("stale read: count %d < published floor %d (cache=%s)", got, floor, r.Cache)
					return
				}
			}
		}()
	}
	for gen := 0; gen < 15; gen++ {
		if _, err := db.Insert("events", [][]storage.Value{{
			storage.IntValue(int64(10000 + gen)), storage.IntValue(1),
			storage.DecString("1.00"), storage.StrValue("blue"),
		}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint("events"); err != nil {
			t.Fatal(err)
		}
		// Insert + checkpoint fully published: raise the floor.
		low.Store(int64(1000 + gen + 1))
		// Probe: a fresh read right now must see the new generation.
		r, err := db.Query(sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Rel.Col(0).Get(0); got < int64(1000+gen+1) {
			t.Fatalf("gen %d: post-publication read returned %d (cache=%s)", gen, got, r.Cache)
		}
	}
	close(stop)
	readers.Wait()
}

// Satellite regression: journal fingerprints use the normalized template,
// so repeated parameterized queries group under one fingerprint while
// raw-SQL FNV would scatter them.
func TestJournalFingerprintGroupsParameterizedQueries(t *testing.T) {
	db := cacheTestDB(t, 200)
	defer db.Close()
	opts := QueryOptions{Mode: ForceHost}
	queries := []string{
		"SELECT COUNT(*) FROM events WHERE id < 10",
		"SELECT COUNT(*) FROM events WHERE id < 20",
		"select count(*)   from events\twhere id < 30",
		"SELECT count(*) FROM EVENTS WHERE ID < 40",
	}
	for _, q := range queries {
		if _, err := db.Query(q, opts); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.QueryJournal().Records()
	if len(recs) != len(queries) {
		t.Fatalf("journal has %d records", len(recs))
	}
	fp := recs[0].Fingerprint
	for _, r := range recs {
		if r.Fingerprint != fp {
			t.Fatalf("fingerprints scattered: %x vs %x (%q)", r.Fingerprint, fp, r.SQL)
		}
	}
	// A structurally different query must not share the fingerprint.
	if _, err := db.Query("SELECT COUNT(*) FROM events WHERE grp < 10", opts); err != nil {
		t.Fatal(err)
	}
	recs = db.QueryJournal().Records()
	if recs[len(recs)-1].Fingerprint == fp {
		t.Fatal("different template must fingerprint differently")
	}
	// Unlexable SQL still journals (raw fingerprint fallback) — it errors
	// at parse, but the record lands.
	_, _ = db.Query("SELECT ~ FROM events", opts)
	recs = db.QueryJournal().Records()
	if len(recs) != len(queries)+2 {
		t.Fatalf("unlexable query must still journal: %d records", len(recs))
	}
}

func TestExplainAnalyzeShowsCacheLine(t *testing.T) {
	db := cacheTestDB(t, 500)
	defer db.Close()
	opts := QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU, FailOnInadmissible: true}
	miss, err := db.Query("EXPLAIN ANALYZE "+cacheSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Profile == nil {
		t.Fatalf("no profile: %s", miss.ProfileNote)
	}
	if !strings.Contains(miss.Profile.Format(), "cache: miss") {
		t.Fatalf("profile missing cache line:\n%s", miss.Profile.Format())
	}
	hit, err := db.Query("EXPLAIN ANALYZE "+cacheSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" {
		t.Fatalf("cache = %q", hit.Cache)
	}
	if !strings.Contains(hit.ProfileNote, "cache: hit") {
		t.Fatalf("hit note = %q", hit.ProfileNote)
	}
}
