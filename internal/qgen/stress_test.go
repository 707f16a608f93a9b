package qgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
	"rapid/internal/tpch"
)

// TestConcurrentQueriesSharedRegistry runs mixed TPC-H and generated queries
// from many goroutines against one database with a shared metrics registry,
// while a writer mutates a scratch table and checkpoints. Run under
// `go test -race`; the assertions also pin the registry totals.
func TestConcurrentQueriesSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	db := hostdb.NewWithConfig(reg, sched.Config{})
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.002, Seed: 7}); err != nil {
		t.Fatal(err)
	}

	// Load one generated scenario into the same database (its t0..tN names
	// are disjoint from the TPC-H tables).
	g := New(42)
	sc := g.NewScenario()
	for _, tab := range sc.Tables {
		schema := make([]storage.ColumnDef, len(tab.Cols))
		for i, c := range tab.Cols {
			schema[i] = storage.ColumnDef{Name: c.Name, Type: c.Type}
		}
		if _, err := db.CreateTable(tab.Name, storage.MustSchema(schema...)); err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) > 0 {
			if _, err := db.Insert(tab.Name, tab.Rows); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Load(tab.Name, hostdb.LoadOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Scratch table for the concurrent writer; queries never touch it, so
	// the queried tables stay admissible throughout.
	if _, err := db.CreateTable("scratch", storage.MustSchema(storage.ColumnDef{Name: "v", Type: coltypes.Int()})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load("scratch", hostdb.LoadOptions{}); err != nil {
		t.Fatal(err)
	}

	var issued atomic.Int64
	runQ := func(sql string, opts hostdb.QueryOptions) error {
		issued.Add(1)
		res, err := db.Query(sql, opts)
		if err != nil {
			return err
		}
		if res.FellBack {
			return fmt.Errorf("fell back to host")
		}
		if res.Profile != nil {
			if ierr := res.Profile.CheckInvariants(); ierr != nil {
				return fmt.Errorf("profile invariants: %w", ierr)
			}
			if ierr := res.Profile.CheckEnergyInvariants(power.DefaultEnergyModel()); ierr != nil {
				return fmt.Errorf("energy invariants: %w", ierr)
			}
		}
		return nil
	}

	lanes := []hostdb.QueryOptions{
		{Mode: hostdb.ForceHost},
		{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true, Profile: true},
		{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, FailOnInadmissible: true, Profile: true},
	}

	// Query pool: the generated queries the host accepts, plus TPC-H Q1/Q6.
	var pool []string
	for i := 0; i < 12; i++ {
		sql := g.NextQuery().SQL()
		if err := runQ(sql, lanes[0]); err == nil {
			pool = append(pool, sql)
		}
	}
	if len(pool) < 4 {
		t.Fatalf("only %d usable generated queries", len(pool))
	}
	for _, name := range []string{"Q1", "Q6"} {
		for _, q := range tpch.Queries() {
			if q.Name == name {
				pool = append(pool, q.SQL)
			}
		}
	}

	// Telemetry endpoints stay curl-able while the query storm runs: a valid
	// exposition with no duplicate TYPE lines on /metrics, the active table
	// and the journal tallies on /debug/queries.
	srv, err := db.ServeTelemetryWith("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	scrape := func() error {
		body, contentType, err := httpGet(srv.URL())
		if err != nil {
			return err
		}
		if contentType != obs.PrometheusContentType {
			return fmt.Errorf("metrics content type %q", contentType)
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(string(body), "\n") {
			if !strings.HasPrefix(line, "# TYPE ") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("malformed TYPE line %q", line)
			}
			if seen[fields[2]] {
				return fmt.Errorf("duplicate TYPE for %s", fields[2])
			}
			seen[fields[2]] = true
		}
		for _, name := range []string{"hostdb_queries_total", "sched_queue_wait_seconds"} {
			if !seen[name] {
				return fmt.Errorf("exposition missing %s:\n%s", name, body)
			}
		}
		return scrapeQueries("http://"+srv.Addr()+"/debug/queries", false)
	}

	const workers = 8
	const itersPerWorker = 24
	errCh := make(chan error, workers*itersPerWorker+16)
	var wg sync.WaitGroup
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			if err := scrape(); err != nil {
				errCh <- fmt.Errorf("mid-storm scrape: %w", err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < itersPerWorker; i++ {
				sql := pool[(w+i)%len(pool)]
				opts := lanes[(w+i)%len(lanes)]
				if err := runQ(sql, opts); err != nil {
					errCh <- fmt.Errorf("worker %d iter %d (%s): %w", w, i, sql, err)
					return
				}
			}
		}(w)
	}
	// Concurrent writer: journal mutations plus checkpoints exercise the
	// checkpoint-lag gauge while queries run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.Insert("scratch", [][]storage.Value{{storage.IntValue(int64(i))}}); err != nil {
				errCh <- fmt.Errorf("writer insert: %w", err)
				return
			}
			if i%8 == 7 {
				if err := db.CheckpointAll(); err != nil {
					errCh <- fmt.Errorf("writer checkpoint: %w", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(scrapeStop)
	<-scrapeDone
	// One final scrape after the storm: counters at rest must still serve,
	// and with nothing in flight the journal tallies add up.
	if err := scrape(); err != nil {
		t.Error(err)
	}
	if err := scrapeQueries("http://"+srv.Addr()+"/debug/queries", true); err != nil {
		t.Error(err)
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	if err := db.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Values()
	if got, want := snap["hostdb_queries_total"], issued.Load(); got != want {
		t.Errorf("hostdb_queries_total = %d, want %d", got, want)
	}
	if snap["hostdb_queries_failed"] != 0 {
		t.Errorf("hostdb_queries_failed = %d, want 0", snap["hostdb_queries_failed"])
	}
	if snap["hostdb_queries_offloaded"] == 0 {
		t.Error("no offloaded queries counted")
	}
	if snap["hostdb_checkpoints_total"] == 0 {
		t.Error("no checkpoints counted")
	}
	if lag := snap["hostdb_checkpoint_lag_entries"]; lag != 0 {
		t.Errorf("checkpoint lag gauge = %d after CheckpointAll, want 0", lag)
	}
}

// httpGet returns the body and content type of a 200 response.
func httpGet(url string) (body []byte, contentType string, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// scrapeQueries fetches /debug/queries and checks the body is the documented
// snapshot: an "active" table, "journal" tallies and a bounded "recent" tail
// that parse back into obs.QueriesSnapshot. atRest additionally requires an
// empty active table and outcome tallies that sum to the total (mid-storm the
// tallies are read one lock at a time, so only the shape is checked).
func scrapeQueries(url string, atRest bool) error {
	body, _, err := httpGet(url)
	if err != nil {
		return err
	}
	for _, key := range []string{`"active"`, `"journal"`, `"recent"`} {
		if !strings.Contains(string(body), key) {
			return fmt.Errorf("/debug/queries missing %s:\n%s", key, body)
		}
	}
	var snap obs.QueriesSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("/debug/queries does not parse: %w\n%s", err, body)
	}
	j := snap.Journal
	if j.Total == 0 || len(snap.Recent) == 0 || len(snap.Recent) > 32 {
		return fmt.Errorf("/debug/queries: total %d with %d recent records", j.Total, len(snap.Recent))
	}
	if atRest && (len(snap.Active) != 0 || j.OK+j.Shed+j.Canceled+j.Error != j.Total) {
		return fmt.Errorf("/debug/queries at rest: %d active, ok %d + shed %d + canceled %d + error %d != total %d",
			len(snap.Active), j.OK, j.Shed, j.Canceled, j.Error, j.Total)
	}
	return nil
}
