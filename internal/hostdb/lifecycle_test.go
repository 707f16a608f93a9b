package hostdb

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rapid/internal/obs"
	"rapid/internal/plan"
	"rapid/internal/qcache"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

func TestStripExplainAnalyze(t *testing.T) {
	cases := []struct {
		in, inner string
		ok        bool
	}{
		{"explain analyze SELECT 1", "SELECT 1", true},
		{"EXPLAIN\n\tANALYZE select a from t", "select a from t", true},
		{"  \n Explain  Analyze   SELECT 1  ", "SELECT 1", true},
		{"EXPLAIN ANALYZE", "", true},
		{"EXPLAIN SELECT 1", "EXPLAIN SELECT 1", false},
		{"EXPLAINANALYZE SELECT 1", "EXPLAINANALYZE SELECT 1", false},
		{"EXPLAIN ANALYZER SELECT 1", "EXPLAIN ANALYZER SELECT 1", false},
		{"EXPLAIN ANALYZE(SELECT 1)", "EXPLAIN ANALYZE(SELECT 1)", false},
		{"SELECT 1", "SELECT 1", false},
		{"", "", false},
	}
	for _, c := range cases {
		inner, ok := stripExplainAnalyze(c.in)
		if inner != c.inner || ok != c.ok {
			t.Errorf("stripExplainAnalyze(%q) = %q, %v; want %q, %v", c.in, inner, ok, c.inner, c.ok)
		}
	}
	for _, sql := range []string{"EXPLAIN\n\tANALYZE select a from t", "SELECT grp, SUM(amount) FROM events GROUP BY grp"} {
		if n := testing.AllocsPerRun(100, func() { stripExplainAnalyze(sql) }); n != 0 {
			t.Errorf("stripExplainAnalyze(%q) allocates %v times per call, want 0", sql, n)
		}
	}
}

// fakeEngine is a lifecycle Engine with no execution engine behind it: it
// binds against a real catalog (the driver's parse and bind are under test)
// but "executes" by counting, so every branch of RunQuery is reachable
// deterministically.
type fakeEngine struct {
	db *Database

	mu       sync.Mutex
	version  uint64 // MutSCN reported for every table
	lookups  int    // binder catalog lookups = evidence that bind ran
	executes int
	// onExecute, when set, runs inside the n-th (1-based) Execute.
	onExecute func(n int) error
}

type fakeOpts struct{ Analyze, NoCache bool }

type fakeResult struct {
	ID        uint64
	Cache     string
	FromCache bool
}

func (e *fakeEngine) Analyzed(o fakeOpts) fakeOpts { o.Analyze = true; return o }
func (e *fakeEngine) Label(fakeOpts) string        { return "fake" }
func (e *fakeEngine) Nodes() int                   { return 1 }

func (e *fakeEngine) CacheMode(o fakeOpts) string {
	if o.NoCache {
		return ""
	}
	return "fake"
}

func (e *fakeEngine) Lookup(name string) (*storage.Table, error) {
	e.mu.Lock()
	e.lookups++
	e.mu.Unlock()
	return hostEngine{e.db}.Lookup(name)
}

func (e *fakeEngine) Version(name string) (qcache.Version, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return qcache.Version{Name: name, MutSCN: e.version}, true
}

func (e *fakeEngine) bump() {
	e.mu.Lock()
	e.version++
	e.mu.Unlock()
}

func (e *fakeEngine) counts() (lookups, executes int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lookups, e.executes
}

func (e *fakeEngine) Execute(ctx context.Context, bound plan.Node, o fakeOpts, h obs.ActiveHandle) (*fakeResult, error) {
	e.mu.Lock()
	e.executes++
	n, hook := e.executes, e.onExecute
	e.mu.Unlock()
	if hook != nil {
		if err := hook(n); err != nil {
			return nil, err
		}
	}
	return &fakeResult{}, nil
}

func (e *fakeEngine) CacheEntry(res *fakeResult) *qcache.Result {
	return NewCacheEntry(res, nil, Bill{Cycles: 7, EnergyNJ: 9})
}

func (e *fakeEngine) FromCache(r *qcache.Result, o fakeOpts) *fakeResult {
	return &fakeResult{Cache: "hit", FromCache: true}
}

func (e *fakeEngine) SetCacheStatus(res *fakeResult, o fakeOpts, status string) { res.Cache = status }

func (e *fakeEngine) Finish(id uint64, res *fakeResult, err error, o fakeOpts, wall time.Duration) obs.QueryRecord {
	rec := obs.QueryRecord{Mode: "fake"}
	if res != nil {
		res.ID, rec.Cache = id, res.Cache
	}
	return rec
}

const fakeSQL = "SELECT grp, SUM(amount) FROM events WHERE id < 900 GROUP BY grp"

func newFake(t *testing.T, cfg qcache.Config) (*fakeEngine, *qcache.Cache) {
	t.Helper()
	db := newTestDB(t, 100)
	loadAll(t, db)
	t.Cleanup(db.Close)
	return &fakeEngine{db: db}, db.EnableQueryCache(cfg)
}

func (e *fakeEngine) run(ctx context.Context, sql string) (*fakeResult, error) {
	return RunQuery(ctx, e.db, e, sql, fakeOpts{})
}

// waitParkedIn polls until some goroutine's stack shows fn, i.e. a goroutine
// has entered it and not yet returned.
func waitParkedIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s", fn)
}

// leaderAndFollower issues fakeSQL twice: the first query blocks inside
// Execute until the second is parked on its flight, then inLeader runs
// (still inside the leader's Execute) and both complete.
func leaderAndFollower(t *testing.T, e *fakeEngine, inLeader func() error) (leader, follower *fakeResult, lerr, ferr error) {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	e.onExecute = func(n int) error {
		if n != 1 {
			return nil
		}
		close(started)
		<-release
		return inLeader()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader, lerr = e.run(context.Background(), fakeSQL)
	}()
	<-started
	go func() {
		defer wg.Done()
		follower, ferr = e.run(context.Background(), fakeSQL)
	}()
	waitParkedIn(t, "qcache.(*Flight).Wait")
	close(release)
	wg.Wait()
	return
}

// (a) A version vector that moves between bind and publish voids the result:
// the leader still gets it, but it is neither cached nor handed to flight
// followers (it may mix old and new data) — the follower re-executes.
func TestDriverVersionMoveVoidsPublish(t *testing.T) {
	e, cache := newFake(t, qcache.Config{})
	leader, follower, lerr, ferr := leaderAndFollower(t, e, func() error { e.bump(); return nil })
	if lerr != nil || ferr != nil {
		t.Fatal(lerr, ferr)
	}
	if leader.Cache != "miss" || leader.FromCache {
		t.Fatalf("leader = %+v, want its own miss execution", leader)
	}
	if follower.FromCache {
		t.Fatalf("follower = %+v: was handed a voided result", follower)
	}
	if _, n := e.counts(); n != 2 {
		t.Fatalf("executions = %d, want 2 (leader, then the re-competing follower)", n)
	}
	if s := cache.Stats(); s.Shared != 0 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want nothing shared or hit", s)
	}
}

// (a') A valid result the admission policy rejects is still shared with the
// flight's followers, but never becomes resident.
func TestDriverAdmissionRejectStillShares(t *testing.T) {
	e, cache := newFake(t, qcache.Config{MaxResultBytes: 8})
	leader, follower, lerr, ferr := leaderAndFollower(t, e, func() error { return nil })
	if lerr != nil || ferr != nil {
		t.Fatal(lerr, ferr)
	}
	if leader.Cache != "miss" || !follower.FromCache {
		t.Fatalf("leader = %+v follower = %+v, want miss + shared", leader, follower)
	}
	s := cache.Stats()
	if _, n := e.counts(); n != 1 || s.Shared != 1 || s.Rejects != 1 || s.ResidentEntries != 0 {
		t.Fatalf("executions = %d stats = %+v, want 1 execution, 1 shared, 1 reject, nothing resident", n, s)
	}
	if r, err := e.run(context.Background(), fakeSQL); err != nil || r.FromCache {
		t.Fatalf("rejected entry must not serve later queries: %+v, %v", r, err)
	}
}

// (b) When the leader's execution fails, a waiting follower re-competes,
// becomes the leader and never sees the error.
func TestDriverFollowerSurvivesLeaderError(t *testing.T) {
	e, cache := newFake(t, qcache.Config{})
	boom := errors.New("leader failed")
	_, follower, lerr, ferr := leaderAndFollower(t, e, func() error { return boom })
	if !errors.Is(lerr, boom) {
		t.Fatalf("leader error = %v, want %v", lerr, boom)
	}
	if ferr != nil || follower == nil || follower.FromCache || follower.Cache != "miss" {
		t.Fatalf("follower = %+v, %v; want its own successful miss execution", follower, ferr)
	}
	if _, n := e.counts(); n != 2 {
		t.Fatalf("executions = %d, want 2", n)
	}
	j := e.db.QueryJournal()
	if j.OutcomeCount(obs.OutcomeError) != 1 || j.OutcomeCount(obs.OutcomeOK) != 1 {
		t.Fatalf("journal outcomes: error=%d ok=%d, want 1/1", j.OutcomeCount(obs.OutcomeError), j.OutcomeCount(obs.OutcomeOK))
	}
	// The follower's result was published: the next query hits.
	if r, err := e.run(context.Background(), fakeSQL); err != nil || !r.FromCache || cache.Stats().Hits != 1 {
		t.Fatalf("after recovery: %+v, %v, stats %+v", r, err, cache.Stats())
	}
}

// (c) A context that is already expired on entry is journaled as canceled
// without the engine ever being asked to execute, and leaves nothing behind
// in the active-query table.
func TestDriverExpiredContextNeverExecutes(t *testing.T) {
	e, _ := newFake(t, qcache.Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := e.run(ctx, fakeSQL)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("res = %+v err = %v, want nil + DeadlineExceeded", res, err)
	}
	if lookups, n := e.counts(); n != 0 || lookups != 0 {
		t.Fatalf("lookups = %d executions = %d, want neither bind nor execute", lookups, n)
	}
	if n := len(e.db.ActiveQueries()); n != 0 {
		t.Fatalf("active set holds %d queries after return", n)
	}
	recs := e.db.QueryJournal().Records()
	if len(recs) != 1 || recs[0].Outcome != obs.OutcomeCanceled || recs[0].Mode != "fake" {
		t.Fatalf("journal = %+v, want one canceled record", recs)
	}
}

// (c') A ForceOffload query that is shed or canceled before it executes is
// journaled under the RAPID mode it was forced onto — what the active-query
// table showed while it waited — not as a host query.
func TestFailedOffloadJournalsRequestedMode(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     qef.Mode
		deadline time.Duration // 0: a filler takes the one queue slot and the query is shed
		outcome  obs.QueryOutcome
		wantErr  error
	}{
		{"shed", qef.ModeX86, 0, obs.OutcomeShed, sched.ErrOverloaded},
		{"canceled", qef.ModeDPU, 20 * time.Millisecond, obs.OutcomeCanceled, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := NewWithConfig(obs.NewRegistry(), sched.Config{MaxConcurrent: 1, MaxQueued: 1})
			seedTestDB(t, db, 100)
			defer db.Close()
			// Hold the only slot: the query waits out its deadline in the
			// queue, or finds the queue full too.
			hold, err := db.Scheduler().Admit(context.Background(), sched.Request{Cores: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer hold.Release()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.deadline > 0 {
				ctx, cancel = context.WithTimeout(ctx, tc.deadline)
				defer cancel()
			} else {
				filled := make(chan struct{})
				go func() {
					defer close(filled)
					if a, err := db.Scheduler().Admit(ctx, sched.Request{Cores: 1}); err == nil {
						a.Release()
					}
				}()
				defer func() { cancel(); <-filled }()
				for deadline := time.Now().Add(5 * time.Second); db.Metrics().Gauge("sched_queue_depth").Value() != 1; {
					if time.Now().After(deadline) {
						t.Fatal("filler never queued")
					}
					time.Sleep(time.Millisecond)
				}
			}
			opts := QueryOptions{Mode: ForceOffload, RapidMode: tc.mode, FailOnInadmissible: true}
			if _, err := db.QueryCtx(ctx, "SELECT COUNT(*) FROM events", opts); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			recs := db.QueryJournal().Records()
			if len(recs) != 1 || recs[0].Outcome != tc.outcome || recs[0].Mode != tc.mode.String() {
				t.Fatalf("journal = %+v, want one %v record in mode %s", recs, tc.outcome, tc.mode)
			}
		})
	}
}

// (d) SQL the lexer rejects keeps the raw-SQL fingerprint, bypasses the
// cache and still journals exactly one record.
func TestDriverUnlexableSQLBypasses(t *testing.T) {
	e, cache := newFake(t, qcache.Config{})
	const bad = "SELECT 'unterminated FROM events"
	res, err := e.run(context.Background(), bad)
	if res != nil || err == nil {
		t.Fatalf("res = %+v err = %v, want a parse error", res, err)
	}
	if s := cache.Stats(); s.Bypasses != 1 || s.Misses != 0 {
		t.Fatalf("stats = %+v, want one bypass and no lookup", s)
	}
	recs := e.db.QueryJournal().Records()
	if len(recs) != 1 || recs[0].Outcome != obs.OutcomeError || recs[0].Fingerprint != obs.Fingerprint(bad) || recs[0].SQL != bad {
		t.Fatalf("journal = %+v, want one error record under the raw-SQL fingerprint", recs)
	}
	if _, n := e.counts(); n != 0 {
		t.Fatalf("executions = %d, want 0", n)
	}
}

// (e) Every executed miss parses and binds through the engine's catalog —
// under another result-cache mode key and after the version vector moves
// alike — and a result-cache hit binds nothing.
func TestDriverEveryMissBindsAndHitsDoNot(t *testing.T) {
	e, cache := newFake(t, qcache.Config{})
	run := func(eng Engine[fakeOpts, fakeResult], what string, wantHit bool) {
		t.Helper()
		before, _ := e.counts()
		r, err := RunQuery(context.Background(), e.db, eng, fakeSQL, fakeOpts{})
		if err != nil || r.FromCache != wantHit {
			t.Fatalf("%s: %+v, %v; want FromCache = %v", what, r, err, wantHit)
		}
		after, _ := e.counts()
		if bound := after > before; bound == wantHit {
			t.Fatalf("%s: catalog lookups %d → %d; a miss must bind, a hit must not", what, before, after)
		}
	}
	run(e, "cold miss", false)
	run(e, "hit", true)
	run(otherMode{e}, "miss under another mode", false)
	run(otherMode{e}, "hit under another mode", true)
	e.bump()
	run(e, "stale after bump", false)
	if _, n := e.counts(); n != 3 {
		t.Fatalf("executions = %d, want 3 (one per miss)", n)
	}
	if s := cache.Stats(); s.Hits != 2 || s.Stale != 1 {
		t.Fatalf("stats = %+v, want 2 hits and 1 stale", s)
	}
}

// otherMode is fakeEngine under a different result-cache mode key: one
// catalog, disjoint result entries.
type otherMode struct{ *fakeEngine }

func (otherMode) CacheMode(fakeOpts) string { return "fake-other" }
