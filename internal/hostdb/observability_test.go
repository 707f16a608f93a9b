package hostdb_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/tpch"
)

// The fleet-observability battery: the query journal, the active-query
// table, cancel-by-ID, the telemetry endpoint and the histogram/counter
// reconciliation contracts, all exercised on a shared database (CI runs
// this package under -race).

// TestJournalStormReconciles is the acceptance-criterion storm: 64 clients
// with mixed outcomes (ok / shed / canceled) against a tiny scheduler. Every
// issued query must land exactly one journal record, the cumulative outcome
// counters must sum to the total and reconcile with the scheduler's own
// admission counters, and nothing may remain in the active-query table.
func TestJournalStormReconciles(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 2, MaxQueued: 2})
	q := tpch.Queries()[0]
	opts := hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}

	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	const clients = 64
	var wg sync.WaitGroup
	var wantCanceled int64
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		ctx := context.Background()
		if g%4 == 3 {
			ctx = canceledCtx
			wantCanceled++
		}
		wg.Add(1)
		go func(g int, ctx context.Context) {
			defer wg.Done()
			_, errs[g] = db.QueryCtx(ctx, q.SQL, opts)
		}(g, ctx)
	}
	wg.Wait()

	var ok, shed, canceled int64
	for g, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, sched.ErrOverloaded):
			shed++
		case errors.Is(err, context.Canceled):
			canceled++
		default:
			t.Fatalf("client %d: unexpected error %v", g, err)
		}
	}
	if ok == 0 {
		t.Fatal("storm produced no successful queries")
	}
	if canceled < wantCanceled {
		t.Fatalf("canceled = %d, want >= %d (pre-canceled clients)", canceled, wantCanceled)
	}

	j := db.QueryJournal()
	if j.Total() != clients {
		t.Fatalf("journal Total = %d, want %d (one record per issued query)", j.Total(), clients)
	}
	if got := j.OutcomeCount(obs.OutcomeOK); got != ok {
		t.Errorf("journal ok = %d, clients saw %d", got, ok)
	}
	if got := j.OutcomeCount(obs.OutcomeShed); got != shed {
		t.Errorf("journal shed = %d, clients saw %d", got, shed)
	}
	if got := j.OutcomeCount(obs.OutcomeCanceled); got != canceled {
		t.Errorf("journal canceled = %d, clients saw %d", got, canceled)
	}
	var sum int64
	for _, o := range []obs.QueryOutcome{obs.OutcomeOK, obs.OutcomeShed, obs.OutcomeCanceled, obs.OutcomeError} {
		sum += j.OutcomeCount(o)
	}
	if sum != j.Total() {
		t.Errorf("outcome counters sum to %d, Total is %d", sum, j.Total())
	}
	if j.Len() > obs.DefJournalCapacity {
		t.Errorf("journal Len %d exceeds ring capacity %d", j.Len(), obs.DefJournalCapacity)
	}

	// Reconciliation with the engine counters: one hostdb_queries_total tick
	// and one latency observation per journal record, and the journal's shed
	// count equals the scheduler's fast-fail counter.
	vals := db.Metrics().Values()
	if got := vals["hostdb_queries_total"]; got != j.Total() {
		t.Errorf("hostdb_queries_total = %d, journal Total = %d", got, j.Total())
	}
	if got := db.Metrics().Histogram("hostdb_query_seconds").View().Count; got != j.Total() {
		t.Errorf("hostdb_query_seconds count = %d, journal Total = %d", got, j.Total())
	}
	if got := vals["sched_rejected_total"]; got != shed {
		t.Errorf("sched_rejected_total = %d, journal shed = %d", got, shed)
	}
	if act := db.ActiveQueries(); len(act) != 0 {
		t.Errorf("active-query table holds %d entries after the storm: %+v", len(act), act)
	}
}

// TestCancelQueryByID kills a queued query through the active-query table:
// \ps shows it in phase "queued", CancelQuery unblocks it with
// context.Canceled, and the journal records the canceled outcome under the
// same fleet-wide ID.
func TestCancelQueryByID(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 1})
	q := tpch.Queries()[0]
	opts := hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}

	hold, err := db.Scheduler().Admit(context.Background(), sched.Request{})
	if err != nil {
		t.Fatalf("hold Admit: %v", err)
	}
	defer hold.Release()

	errc := make(chan error, 1)
	go func() {
		_, err := db.Query(q.SQL, opts)
		errc <- err
	}()

	// Wait for the query to surface as queued in the live table.
	var id uint64
	deadline := time.Now().Add(5 * time.Second)
	for id == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared as queued in ActiveQueries")
		}
		for _, aq := range db.ActiveQueries() {
			if aq.Phase == "queued" {
				id = aq.ID
				if aq.SQL == "" || aq.Elapsed < 0 {
					t.Fatalf("malformed active entry: %+v", aq)
				}
			}
		}
		time.Sleep(time.Millisecond)
	}

	if !db.CancelQuery(id) {
		t.Fatalf("CancelQuery(%d) = false for a live query", id)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query returned %v, want context.Canceled", err)
	}
	// Second cancel of a finished query must fail.
	if db.CancelQuery(id) {
		t.Errorf("CancelQuery(%d) succeeded after the query finished", id)
	}
	recs := db.QueryJournal().Records()
	last := recs[len(recs)-1]
	if last.ID != id || last.Outcome != obs.OutcomeCanceled {
		t.Fatalf("journal tail = id %d outcome %s, want id %d canceled", last.ID, last.Outcome, id)
	}
}

// TestTelemetryQueriesEndpoint scrapes /debug/queries and /metrics while
// pprof stays gated behind its flag.
func TestTelemetryQueriesEndpoint(t *testing.T) {
	db := concurrencyDB(t, sched.Config{})
	q := tpch.Queries()[0]
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := db.ServeTelemetryWith("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries = %d", code)
	}
	var snap obs.QueriesSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/queries is not JSON: %v\n%s", err, body)
	}
	j := db.QueryJournal()
	if snap.Journal.Total != j.Total() || snap.Journal.OK != j.OutcomeCount(obs.OutcomeOK) {
		t.Fatalf("snapshot journal %+v does not match journal total=%d ok=%d",
			snap.Journal, j.Total(), j.OutcomeCount(obs.OutcomeOK))
	}
	if len(snap.Recent) != j.Len() {
		t.Fatalf("snapshot recent = %d records, journal holds %d", len(snap.Recent), j.Len())
	}
	if snap.Active == nil {
		t.Fatal("active must marshal as [] even when idle")
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "hostdb_queries_total") {
		t.Fatalf("/metrics = %d, body %q...", code, body[:min(len(body), 80)])
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ = %d without the pprof flag, want 404", code)
	}

	psrv, err := db.ServeTelemetryWith("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	resp, err := http.Get("http://" + psrv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d with the pprof flag, want 200", resp.StatusCode)
	}
}

// TestQueryHistogramsReconcileWithCounters pins the exactness contract: the
// per-query distribution histograms observe the same integers that feed the
// engine-wide totals, so bucket sums reconcile with the counters exactly.
func TestQueryHistogramsReconcileWithCounters(t *testing.T) {
	db := concurrencyDB(t, sched.Config{})
	opts := hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU}
	var journalCycles, journalEnergy int64
	for _, q := range tpch.Queries()[:5] {
		res, err := db.Query(q.SQL, opts)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !res.Offloaded {
			t.Fatalf("%s did not offload", q.Name)
		}
		journalCycles += res.Cycles
		journalEnergy += res.EnergyNJ
	}

	vals := db.Metrics().Values()
	cyc := db.Metrics().Histogram("rapid_query_cycles").View()
	if int64(cyc.Sum) != vals["rapid_dpcore_cycles_total"] {
		t.Errorf("rapid_query_cycles sum = %.0f, rapid_dpcore_cycles_total = %d",
			cyc.Sum, vals["rapid_dpcore_cycles_total"])
	}
	if int64(cyc.Sum) != journalCycles {
		t.Errorf("rapid_query_cycles sum = %.0f, per-result cycles sum to %d", cyc.Sum, journalCycles)
	}
	if cyc.Count != 5 {
		t.Errorf("rapid_query_cycles count = %d, want 5", cyc.Count)
	}
	en := db.Metrics().Histogram("rapid_query_energy_nanojoules").View()
	wantNJ := vals["rapid_activity_energy_nanojoules_total"] + vals["rapid_idle_energy_nanojoules_total"]
	if int64(en.Sum) != wantNJ {
		t.Errorf("energy histogram sum = %.0f nJ, counters total %d nJ", en.Sum, wantNJ)
	}
	if int64(en.Sum) != journalEnergy {
		t.Errorf("energy histogram sum = %.0f nJ, per-result EnergyNJ sums to %d", en.Sum, journalEnergy)
	}
	// The journal carries the same integers.
	var recCycles, recEnergy int64
	for _, rec := range db.QueryJournal().Records() {
		recCycles += rec.Cycles
		recEnergy += rec.EnergyNJ
	}
	if recCycles != journalCycles || recEnergy != journalEnergy {
		t.Errorf("journal sums cycles=%d energy=%d, results sum cycles=%d energy=%d",
			recCycles, recEnergy, journalCycles, journalEnergy)
	}
}

// min is a tiny local helper (no generics assumptions in older analyzers).
func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ = fmt.Sprintf
