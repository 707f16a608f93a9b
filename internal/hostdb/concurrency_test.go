package hostdb_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rapid/internal/hostdb"
	"rapid/internal/ops"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/tpch"
)

// The concurrency battery: many goroutines firing mixed TPC-H queries at
// ONE shared hostdb.Database, whose offloads all multiplex over the same
// shared-SoC scheduler. Results must be identical to serial execution,
// the run must be race-clean (CI runs this package under -race), overload
// must shed with ErrOverloaded, and cancellation must be prompt and must
// release its admission slot.

// stressSeedFlag replays a specific workload shape:
//
//	go test -run TestConcurrentQueriesMatchSerial -hostdb.stress-seed=42
var stressSeedFlag = flag.Int64("hostdb.stress-seed", 2018, "seed for the concurrency stress workload (deterministic replay)")

// concurrencyDB builds one shared TPC-H database for the battery.
func concurrencyDB(t *testing.T, cfg sched.Config) *hostdb.Database {
	t.Helper()
	db := hostdb.NewWithConfig(nil, cfg)
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.002, Seed: *stressSeedFlag}); err != nil {
		t.Fatalf("populate: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// relFingerprint renders a relation as a sorted multiset of row strings, so
// result comparison is independent of any row-order differences.
func relFingerprint(rel *ops.Relation) string {
	if rel == nil {
		return "<nil>"
	}
	rows := make([]string, rel.Rows())
	for i := range rows {
		var sb strings.Builder
		for c := 0; c < rel.NumCols(); c++ {
			if c > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(rel.Render(i, c))
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return fmt.Sprintf("%d cols\n%s", rel.NumCols(), strings.Join(rows, "\n"))
}

// stressCase is one (query, options) workload item.
type stressCase struct {
	name string
	sql  string
	opts hostdb.QueryOptions
}

func stressWorkload() []stressCase {
	var cases []stressCase
	modes := []struct {
		tag  string
		opts hostdb.QueryOptions
	}{
		{"dpu", hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU}},
		{"x86", hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}},
		{"auto", hostdb.QueryOptions{Mode: hostdb.CostBased, RapidMode: qef.ModeX86}},
	}
	for i, q := range tpch.Queries() {
		m := modes[i%len(modes)]
		cases = append(cases, stressCase{name: q.Name + "/" + m.tag, sql: q.SQL, opts: m.opts})
	}
	return cases
}

// TestConcurrentQueriesMatchSerial is the acceptance-criterion stress run:
// >= 64 concurrent mixed queries on one shared database, every result
// identical to the same query run serially beforehand.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 6, MaxQueued: 128})
	cases := stressWorkload()

	// Serial baselines.
	want := make([]string, len(cases))
	for i, c := range cases {
		res, err := db.Query(c.sql, c.opts)
		if err != nil {
			t.Fatalf("serial %s: %v", c.name, err)
		}
		want[i] = relFingerprint(res.Rel)
	}

	const clients = 64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cases[g%len(cases)]
			res, err := db.QueryCtx(context.Background(), c.sql, c.opts)
			if err != nil {
				errs[g] = fmt.Errorf("%s: %w", c.name, err)
				return
			}
			if got := relFingerprint(res.Rel); got != want[g%len(cases)] {
				errs[g] = fmt.Errorf("%s: concurrent result differs from serial\nconcurrent:\n%s\nserial:\n%s", c.name, got, want[g%len(cases)])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestConcurrentSimAccountingIsolated: concurrent DPU queries must report
// the same simulated seconds as when run alone — each query's accounting
// context is private, so sharing physical workers must not leak simulated
// time across queries.
func TestConcurrentSimAccountingIsolated(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 8})
	q := tpch.Queries()[0]
	opts := hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU}

	base, err := db.Query(q.SQL, opts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}

	const clients = 8
	sims := make([]float64, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := db.Query(q.SQL, opts)
			if err != nil {
				t.Errorf("client %d: %v", g, err)
				return
			}
			sims[g] = res.RapidSimSeconds
		}(g)
	}
	wg.Wait()
	for g, s := range sims {
		if s != base.RapidSimSeconds {
			t.Errorf("client %d simulated %.9gs, serial run %.9gs — accounting leaked across queries", g, s, base.RapidSimSeconds)
		}
	}
}

// TestOverloadShedsQueries: with every slot held and the queue full, a
// query must fail fast with sched.ErrOverloaded instead of queuing.
func TestOverloadShedsQueries(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 1, MaxQueued: 1})
	s := db.Scheduler()

	hold, err := s.Admit(context.Background(), sched.Request{})
	if err != nil {
		t.Fatalf("hold Admit: %v", err)
	}
	defer hold.Release()
	queued, err2 := make(chan error, 1), error(nil)
	go func() {
		a, err := s.Admit(context.Background(), sched.Request{})
		if a != nil {
			a.Release()
		}
		queued <- err
	}()
	// Wait until the filler occupies the single queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().Values()["sched_queue_depth"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler never queued")
		}
		time.Sleep(time.Millisecond)
	}

	q := tpch.Queries()[0]
	_, err2 = db.QueryCtx(context.Background(), q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
	if !errors.Is(err2, sched.ErrOverloaded) {
		t.Fatalf("query under overload = %v, want sched.ErrOverloaded", err2)
	}
	hold.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued admission after release: %v", err)
	}
}

// TestDeadlineCancelsPromptly: a query with an already-expired deadline
// must return context.DeadlineExceeded (not fall back to the host engine),
// must not leak goroutines, and must have released its admission slot.
// lateTimer is a context past its deadline whose timer has not fired.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

func TestDeadlineCancelsPromptly(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 2})
	q := tpch.Queries()[0]
	opts := hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU}

	// Warm up: run once so pools, tables and scheduler workers exist before
	// the goroutine baseline is taken.
	if _, err := db.Query(q.SQL, opts); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
		start := time.Now()
		_, err := db.QueryCtx(ctx, q.SQL, opts)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iter %d: err = %v, want context.DeadlineExceeded", i, err)
		}
		// Cancellation is checked per tile / per work unit: even generously,
		// the whole query must stop well under a second.
		if took > 2*time.Second {
			t.Fatalf("iter %d: cancellation took %v", i, took)
		}
	}

	// The deadline is compared with the clock on entry: a context whose
	// deadline has passed but whose timer never fires is refused all the same.
	if _, err := db.QueryCtx(lateTimer{context.Background()}, q.SQL, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unfired timer: err = %v, want context.DeadlineExceeded", err)
	}

	// Admission slots must all be back.
	if got := db.Metrics().Values()["sched_active_queries"]; got != 0 {
		t.Errorf("sched_active_queries after cancellations = %d, want 0", got)
	}
	// And a normal query still runs (no slot leak, no wedged workers).
	if _, err := db.Query(q.SQL, opts); err != nil {
		t.Fatalf("query after cancellations: %v", err)
	}

	// Goroutine budget: allow slack for runtime/test goroutines, but a leak
	// of one goroutine per canceled query (20) must be caught.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 20 cancellations", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelWhileQueuedReleasesWaiter: a query canceled while waiting for
// admission returns ctx.Err() and leaves the queue, letting later queries
// proceed.
func TestCancelWhileQueuedReleasesWaiter(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 1, MaxQueued: 8})
	s := db.Scheduler()
	hold, err := s.Admit(context.Background(), sched.Request{})
	if err != nil {
		t.Fatalf("hold Admit: %v", err)
	}

	q := tpch.Queries()[0]
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryCtx(ctx, q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().Values()["sched_queue_depth"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query after cancel = %v, want context.Canceled", err)
	}
	hold.Release()
	if _, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}); err != nil {
		t.Fatalf("query after canceled waiter: %v", err)
	}
}

// TestHostPathObservesContext: cancellation also applies to host-engine
// execution (the row interpreter checks ctx between fetch batches).
func TestHostPathObservesContext(t *testing.T) {
	db := concurrencyDB(t, sched.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := tpch.Queries()[0]
	_, err := db.QueryCtx(ctx, q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("host query with canceled ctx = %v, want context.Canceled", err)
	}
}

// TestQueueWaitSurfaced: a query that had to wait reports a nonzero
// QueueWait, and immediate admissions report zero.
func TestQueueWaitSurfaced(t *testing.T) {
	db := concurrencyDB(t, sched.Config{MaxConcurrent: 1})
	s := db.Scheduler()
	q := tpch.Queries()[0]
	opts := hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}

	res, err := db.Query(q.SQL, opts)
	if err != nil {
		t.Fatalf("unqueued query: %v", err)
	}
	if res.QueueWait != 0 {
		t.Errorf("unqueued query reported QueueWait %v", res.QueueWait)
	}

	hold, err := s.Admit(context.Background(), sched.Request{})
	if err != nil {
		t.Fatalf("hold Admit: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := db.Query(q.SQL, opts)
		if err != nil {
			t.Errorf("queued query: %v", err)
			return
		}
		if res.QueueWait <= 0 {
			t.Errorf("queued query reported QueueWait %v, want > 0", res.QueueWait)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().Values()["sched_queue_depth"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // accrue measurable wait
	hold.Release()
	<-done
	if db.Metrics().Histogram("sched_queue_wait_seconds").View().Count < 2 {
		t.Error("sched_queue_wait_seconds histogram missing observations")
	}
}
