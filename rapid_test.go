package rapid

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rapid/internal/hostdb"
)

func exampleDB(t testing.TB) *DB { return exampleDBWith(t, Config{}) }

func exampleDBWith(t testing.TB, cfg Config) *DB {
	t.Helper()
	db := OpenWith(cfg)
	err := db.CreateTable("sales",
		IntCol("id"),
		StringCol("region"),
		DateCol("day"),
		DecimalCol("amount", 2),
		BoolCol("online"),
	)
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west"}
	var rows [][]Value
	for i := 0; i < 2000; i++ {
		rows = append(rows, []Value{
			Int(int64(i)),
			String(regions[i%4]),
			Date(2023, 1+(i%12), 1+(i%28)),
			Decimal(fmt.Sprintf("%d.%02d", i%500, i%100)),
			Bool(i%2 == 0),
		})
	}
	if err := db.Insert("sales", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("sales"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := exampleDB(t)
	for _, engine := range []Engine{EngineAuto, EngineHost, EngineRapidDPU, EngineRapidX86} {
		res, err := db.QueryWith(`
			SELECT region, COUNT(*) AS n, SUM(amount) AS total
			FROM sales WHERE day >= DATE '2023-06-01'
			GROUP BY region ORDER BY region`, Options{Engine: engine})
		if err != nil {
			t.Fatalf("engine %d: %v", engine, err)
		}
		if res.Rows() != 4 {
			t.Fatalf("engine %d: rows = %d", engine, res.Rows())
		}
		if res.Get(0, 0) != "east" { // lexicographic region order
			t.Fatalf("engine %d: first region = %s", engine, res.Get(0, 0))
		}
		if engine == EngineHost && res.Offloaded() {
			t.Fatal("EngineHost must not offload")
		}
		if engine == EngineRapidDPU {
			if !res.Offloaded() {
				t.Fatal("EngineRapidDPU must offload")
			}
			if res.SimulatedSeconds() <= 0 {
				t.Fatal("DPU engine must report simulated time")
			}
		}
	}
}

func TestPublicAPIValues(t *testing.T) {
	// Decimals normalize trailing zeros at parse time.
	if Int(5).String() != "5" || Decimal("1.50").String() != "1.5" {
		t.Fatal("value render")
	}
	if String("x").Str != "x" || !Bool(true).Equal(Bool(true)) {
		t.Fatal("value basics")
	}
	d, err := ParseDate("2024-02-29")
	if err != nil || d.String() != "2024-02-29" {
		t.Fatalf("ParseDate: %v %s", err, d)
	}
	if _, err := ParseDate("nope"); err == nil {
		t.Fatal("bad date must fail")
	}
	v, err := ParseDecimal("3.14")
	if err != nil || v.String() != "3.14" {
		t.Fatal("ParseDecimal")
	}
	if _, err := ParseDecimal("x"); err == nil {
		t.Fatal("bad decimal must fail")
	}
}

func TestPublicAPIUpdatesAndCheckpoint(t *testing.T) {
	db := exampleDB(t)
	if err := db.Insert("sales", [][]Value{{
		Int(99999), String("north"), Date(2023, 12, 31), Decimal("1000.00"), Bool(false),
	}}); err != nil {
		t.Fatal(err)
	}
	// Inadmissible offload falls back transparently...
	res, err := db.QueryWith(`SELECT COUNT(*) FROM sales`, Options{Engine: EngineRapidX86})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack() || res.GetInt(0, 0) != 2001 {
		t.Fatalf("fallback: fellback=%v count=%d", res.FellBack(), res.GetInt(0, 0))
	}
	// ...or fails when asked to.
	if _, err := db.QueryWith(`SELECT COUNT(*) FROM sales`,
		Options{Engine: EngineRapidX86, FailOnInadmissible: true}); err == nil {
		t.Fatal("expected admissibility error")
	}
	// Checkpoint, then offload sees the row.
	if err := db.Checkpoint("sales"); err != nil {
		t.Fatal(err)
	}
	res2, err := db.QueryWith(`SELECT COUNT(*) FROM sales`, Options{Engine: EngineRapidX86})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Offloaded() || res2.GetInt(0, 0) != 2001 {
		t.Fatal("post-checkpoint offload broken")
	}
	// Update and delete flow through too.
	if err := db.Update("sales", 0, 3, Decimal("9.99")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("sales", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("sales"); err != nil {
		t.Fatal(err)
	}
	res3, err := db.QueryWith(`SELECT COUNT(*) FROM sales`, Options{Engine: EngineRapidX86})
	if err != nil {
		t.Fatal(err)
	}
	if res3.GetInt(0, 0) != 2000 {
		t.Fatalf("after delete: %d", res3.GetInt(0, 0))
	}
}

func TestResultHelpers(t *testing.T) {
	db := exampleDB(t)
	res, err := db.QueryWith(`SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region LIMIT 2`,
		Options{Engine: EngineRapidX86})
	if err != nil {
		t.Fatal(err)
	}
	names := res.ColumnNames()
	if len(names) != 2 || names[0] != "region" || names[1] != "n" {
		t.Fatalf("names = %v", names)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "region") || !strings.Contains(tbl, "east") {
		t.Fatalf("table render:\n%s", tbl)
	}
	if res.Explain() == "" {
		t.Fatal("explain empty")
	}
	if res.RapidFraction() <= 0 {
		t.Fatal("rapid fraction")
	}
	if res.NumCols() != 2 {
		t.Fatal("NumCols")
	}
}

func TestSchemaErrors(t *testing.T) {
	db := Open()
	if err := db.CreateTable("bad", IntCol("a"), IntCol("a")); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if err := db.Insert("missing", nil); err == nil {
		t.Fatal("missing table must fail")
	}
	if err := db.Load("missing"); err == nil {
		t.Fatal("load missing must fail")
	}
	if _, err := db.Query("SELECT 1 FROM nowhere"); err == nil {
		t.Fatal("query on missing table must fail")
	}
}

// TestExplainAnalyzeReturnsTheReport: Result.Explain is the EXPLAIN ANALYZE
// report when the statement asks for one — on one SoC as on a tray — and the
// bound logical plan otherwise.
func TestExplainAnalyzeReturnsTheReport(t *testing.T) {
	const q = `SELECT region, COUNT(*) FROM sales GROUP BY region`
	db := exampleDB(t)
	defer db.Close()
	tray := exampleDBWith(t, Config{Nodes: 2})
	defer tray.Close()
	for _, tc := range []struct {
		name   string
		db     *DB
		sql    string
		engine Engine
		want   string
	}{
		{"dpu profile", db, "EXPLAIN ANALYZE " + q, EngineRapidDPU, "EXPLAIN ANALYZE (dpu"},
		{"host note", db, "EXPLAIN ANALYZE " + q, EngineHost, "no DPU profile"},
		{"tray report", tray, "EXPLAIN ANALYZE " + q, EngineRapidDPU, "Distributed Plan"},
		{"plain plan", db, q, EngineRapidDPU, "Project(2 exprs)\n  GroupBy"},
	} {
		res, err := tc.db.QueryWith(tc.sql, Options{Engine: tc.engine, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.Explain(); !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: Explain() = %q, want it to start with %q", tc.name, got, tc.want)
		}
	}
}

func TestPublicAPITray(t *testing.T) {
	single := exampleDB(t)
	defer single.Close()
	want, err := single.QueryWith(
		`SELECT region, COUNT(*) AS n, SUM(amount) AS total
		 FROM sales GROUP BY region ORDER BY region`, Options{Engine: EngineHost})
	if err != nil {
		t.Fatal(err)
	}

	for _, nodes := range []int{1, 3} {
		db := OpenWith(Config{Nodes: nodes})
		if db.Tray() == nil || db.Tray().NumNodes() != nodes {
			t.Fatalf("nodes=%d: tray not attached", nodes)
		}
		if err := db.CreateTable("sales",
			IntCol("id"), StringCol("region"), DateCol("day"),
			DecimalCol("amount", 2), BoolCol("online")); err != nil {
			t.Fatal(err)
		}
		regions := []string{"north", "south", "east", "west"}
		var rows [][]Value
		for i := 0; i < 2000; i++ {
			rows = append(rows, []Value{
				Int(int64(i)), String(regions[i%4]),
				Date(2023, 1+(i%12), 1+(i%28)),
				Decimal(fmt.Sprintf("%d.%02d", i%500, i%100)),
				Bool(i%2 == 0),
			})
		}
		if err := db.Insert("sales", rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Load("sales"); err != nil {
			t.Fatal(err)
		}
		for _, engine := range []Engine{EngineAuto, EngineRapidDPU, EngineRapidX86} {
			res, err := db.QueryWith(
				`SELECT region, COUNT(*) AS n, SUM(amount) AS total
				 FROM sales GROUP BY region ORDER BY region`, Options{Engine: engine})
			if err != nil {
				t.Fatalf("nodes=%d engine %d: %v", nodes, engine, err)
			}
			if !res.Offloaded() {
				t.Fatalf("nodes=%d engine %d: tray query must report offloaded", nodes, engine)
			}
			if res.Rows() != want.Rows() {
				t.Fatalf("nodes=%d engine %d: rows = %d, want %d", nodes, engine, res.Rows(), want.Rows())
			}
			for r := 0; r < want.Rows(); r++ {
				for c := 0; c < want.NumCols(); c++ {
					if res.Get(r, c) != want.Get(r, c) {
						t.Fatalf("nodes=%d engine %d: cell (%d,%d) = %s, want %s",
							nodes, engine, r, c, res.Get(r, c), want.Get(r, c))
					}
				}
			}
			if engine == EngineRapidDPU && res.SimulatedSeconds() <= 0 {
				t.Fatal("tray DPU query must report simulated time")
			}
		}
		// EngineHost bypasses the tray entirely.
		res, err := db.QueryWith(`SELECT COUNT(*) FROM sales`, Options{Engine: EngineHost})
		if err != nil {
			t.Fatal(err)
		}
		if res.Offloaded() {
			t.Fatal("EngineHost must not route to the tray")
		}
		db.Close()
	}
}

func TestPublicAPIQueryCache(t *testing.T) {
	db := exampleDB(t)
	defer db.Close()
	const q = `SELECT region, SUM(amount) FROM sales WHERE id < 1500 GROUP BY region`
	cold, err := db.QueryWith(q, Options{Engine: EngineRapidX86})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStatus() != "miss" {
		t.Fatalf("cold CacheStatus = %q, want miss (cache is on by default)", cold.CacheStatus())
	}
	// A literal-normalized variant of the same statement hits.
	hot, err := db.QueryWith("select region, sum(amount)  from sales where id < 1500 group by region",
		Options{Engine: EngineRapidX86})
	if err != nil {
		t.Fatal(err)
	}
	if hot.CacheStatus() != "hit" {
		t.Fatalf("hot CacheStatus = %q, want hit", hot.CacheStatus())
	}
	for r := 0; r < cold.Rows(); r++ {
		for c := 0; c < cold.NumCols(); c++ {
			if cold.Get(r, c) != hot.Get(r, c) {
				t.Fatalf("cached cell (%d,%d) = %s, want %s", r, c, hot.Get(r, c), cold.Get(r, c))
			}
		}
	}
	// NoCache opts out per query.
	bypass, err := db.QueryWith(q, Options{Engine: EngineRapidX86, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if bypass.CacheStatus() != "bypass" {
		t.Fatalf("NoCache CacheStatus = %q, want bypass", bypass.CacheStatus())
	}
	// DML invalidates; the refreshed answer is served and re-cached.
	if err := db.Insert("sales", [][]Value{{
		Int(1), String("east"), Date(2023, 7, 1), Decimal("100.00"), Bool(true),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("sales"); err != nil {
		t.Fatal(err)
	}
	stale, err := db.QueryWith(q, Options{Engine: EngineRapidX86})
	if err != nil {
		t.Fatal(err)
	}
	if stale.CacheStatus() != "stale" {
		t.Fatalf("post-DML CacheStatus = %q, want stale", stale.CacheStatus())
	}
	st := db.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Stale == 0 || st.Bypasses == 0 {
		t.Fatalf("cache stats incomplete: %+v", st)
	}
	// Disabling the cache yields empty statuses.
	off := OpenWith(Config{Cache: CacheConfig{Disable: true}})
	defer off.Close()
	if err := off.CreateTable("t", IntCol("a")); err != nil {
		t.Fatal(err)
	}
	if err := off.Insert("t", [][]Value{{Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := off.Load("t"); err != nil {
		t.Fatal(err)
	}
	res, err := off.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStatus() != "" {
		t.Fatalf("disabled-cache CacheStatus = %q, want empty", res.CacheStatus())
	}
	if s := off.CacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("disabled cache reported stats %+v", s)
	}
}

// hostAndRapid runs sql on the host row engine and on the replica (which must
// be admissible) and returns both single-value answers.
func hostAndRapid(t *testing.T, db *DB, sql string) (host, rapid int64) {
	t.Helper()
	h, err := db.QueryWith(sql, Options{Engine: EngineHost})
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.QueryWith(sql, Options{Engine: EngineRapidX86, FailOnInadmissible: true})
	if err != nil {
		t.Fatal(err)
	}
	return h.GetInt(0, 0), r.GetInt(0, 0)
}

// TestUpdateOfInsertedRowReachesReplica: a row inserted after Load lives in
// the replica's delta chunk; updating and deleting it must land there instead
// of being dropped at Checkpoint.
func TestUpdateOfInsertedRowReachesReplica(t *testing.T) {
	db := exampleDB(t)
	defer db.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	row := func(id int64) []Value {
		return []Value{Int(id), String("north"), Date(2023, 12, 31), Decimal("1.00"), Bool(false)}
	}
	must(db.Insert("sales", [][]Value{row(5000), row(6000)})) // host rows 2000, 2001
	must(db.Checkpoint("sales"))
	must(db.Update("sales", 2000, 0, Int(7000)))
	must(db.Checkpoint("sales"))
	// 0+…+1999 = 1,999,000, plus 7000 and 6000.
	if h, r := hostAndRapid(t, db, `SELECT SUM(id) FROM sales`); h != 2012000 || r != h {
		t.Fatalf("after updating an inserted row: SUM(id) host %d, RAPID %d", h, r)
	}
	// Same again with insert, update and delete in ONE checkpoint.
	must(db.Insert("sales", [][]Value{row(100)})) // host row 2002
	must(db.Update("sales", 2002, 0, Int(200)))
	must(db.Delete("sales", 2001))
	must(db.Checkpoint("sales"))
	if h, r := hostAndRapid(t, db, `SELECT SUM(id) FROM sales`); h != 2006200 || r != h {
		t.Fatalf("after deleting an inserted row: SUM(id) host %d, RAPID %d", h, r)
	}
	if h, r := hostAndRapid(t, db, `SELECT COUNT(*) FROM sales`); h != 2002 || r != h {
		t.Fatalf("COUNT(*) host %d, RAPID %d", h, r)
	}
}

// TestUpdateAfterDeleteAndReload: Load skips tombstones but host row indices
// keep counting them, so after Delete → Load a host index is not the
// replica's row ordinal.
func TestUpdateAfterDeleteAndReload(t *testing.T) {
	db := exampleDB(t)
	defer db.Close()
	for _, step := range []func() error{
		func() error { return db.Delete("sales", 10) },
		func() error { return db.Delete("sales", 1500) },
		func() error { return db.Load("sales") },
		func() error { return db.Update("sales", 20, 0, Int(-20)) },
		func() error { return db.Delete("sales", 1600) },
		func() error { return db.Checkpoint("sales") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		`SELECT COUNT(*) FROM sales WHERE id = 20`,  // 0: row 20 now holds -20
		`SELECT COUNT(*) FROM sales WHERE id = 21`,  // 1: its neighbour is untouched
		`SELECT COUNT(*) FROM sales WHERE id = -20`, // 1
		`SELECT COUNT(*) FROM sales WHERE id = 1600`,
		`SELECT COUNT(*) FROM sales WHERE id = 1602`,
		`SELECT SUM(id) FROM sales`,
	} {
		if h, r := hostAndRapid(t, db, sql); h != r {
			t.Fatalf("%s: host %d, RAPID %d", sql, h, r)
		}
	}
}

// TestDMLOnMissingRowOrColumn: DML that addresses a deleted row, a row out of
// range or a column outside the schema is an error that changes nothing — no
// panic, no journal entry, no new mutation SCN.
func TestDMLOnMissingRowOrColumn(t *testing.T) {
	db := exampleDB(t)
	defer db.Close()
	if err := db.Delete("sales", 10); err != nil {
		t.Fatal(err)
	}
	ht, err := db.Host().Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	pending, mutSCN := ht.PendingJournal(), ht.MutationSCN()
	for _, tc := range []struct {
		name string
		dml  func() error
		want error
	}{
		{"UpdateDeletedRow", func() error { return db.Update("sales", 10, 0, Int(1)) }, hostdb.ErrNoSuchRow},
		{"UpdatePastLastRow", func() error { return db.Update("sales", 2000, 0, Int(1)) }, hostdb.ErrNoSuchRow},
		{"UpdateColumnPastSchema", func() error { return db.Update("sales", 11, 5, Int(1)) }, hostdb.ErrNoSuchColumn},
		{"UpdateNegativeColumn", func() error { return db.Update("sales", 11, -1, Int(1)) }, hostdb.ErrNoSuchColumn},
		{"DeleteTwice", func() error { return db.Delete("sales", 10) }, hostdb.ErrNoSuchRow},
		{"DeleteNegativeRow", func() error { return db.Delete("sales", -1) }, hostdb.ErrNoSuchRow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.dml()
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "sales") {
				t.Errorf("error %v, want one naming the table and wrapping %q", err, tc.want)
			}
		})
	}
	if err := db.Update("sales", 11, 0, String("x")); err == nil {
		t.Error("update with a value of the wrong kind was accepted")
	}
	if ht.PendingJournal() != pending || ht.MutationSCN() != mutSCN {
		t.Fatalf("failed DML left a trace: journal %d → %d entries, mutation SCN %d → %d",
			pending, ht.PendingJournal(), mutSCN, ht.MutationSCN())
	}
	if err := db.Checkpoint("sales"); err != nil {
		t.Fatal(err)
	}
	if h, r := hostAndRapid(t, db, `SELECT COUNT(*) FROM sales`); h != 1999 || r != h {
		t.Fatalf("COUNT(*) host %d, RAPID %d", h, r)
	}
}

// TestAggregateOverStringIsABindError: SUM, AVG, MIN and MAX over a string
// column fail to bind, with an error naming the function, on the host, both
// RAPID modes and a tray; COUNT of the column answers on each.
func TestAggregateOverStringIsABindError(t *testing.T) {
	open := func(nodes int) *DB {
		db := OpenWith(Config{Nodes: nodes})
		if err := db.CreateTable("t", IntCol("id"), StringCol("s")); err != nil {
			t.Fatal(err)
		}
		var rows [][]Value
		for i, s := range []string{"zeta", "alpha", "mid"} {
			rows = append(rows, []Value{Int(int64(i)), String(s)})
		}
		if err := db.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Load("t"); err != nil {
			t.Fatal(err)
		}
		return db
	}
	single, tray := open(0), open(2)
	defer single.Close()
	defer tray.Close()
	for _, tc := range []struct {
		name   string
		db     *DB
		engine Engine
	}{
		{"host", single, EngineHost},
		{"x86", single, EngineRapidX86},
		{"dpu", single, EngineRapidDPU},
		{"tray", tray, EngineRapidX86},
	} {
		for _, fn := range []string{"SUM", "AVG", "MIN", "MAX"} {
			res, err := tc.db.QueryWith(`SELECT `+fn+`(s) FROM t`, Options{Engine: tc.engine})
			if err == nil || !strings.Contains(err.Error(), fn+" over a string") {
				t.Errorf("%s: %s(s) = %v, %v; want an error naming %s over a string", tc.name, fn, res, err, fn)
			}
		}
		res, err := tc.db.QueryWith(`SELECT COUNT(s) FROM t`, Options{Engine: tc.engine})
		if err != nil || res.Get(0, 0) != "3" || res.Offloaded() != (tc.engine != EngineHost) {
			t.Errorf("%s: COUNT(s) = %v, %v; want 3, offloaded off the host", tc.name, res, err)
		}
	}
}
