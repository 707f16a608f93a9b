package hostdb

import (
	"context"
	"fmt"
	"time"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// ExecMode selects how a query is executed.
type ExecMode int

const (
	// CostBased lets the optimizer decide (the paper's default, §3.1).
	CostBased ExecMode = iota
	// ForceHost runs on the System X row engine only.
	ForceHost
	// ForceOffload requires RAPID execution (fails if inadmissible).
	ForceOffload
)

// QueryOptions tunes execution.
type QueryOptions struct {
	Mode ExecMode
	// RapidMode selects the RAPID engine configuration (DPU simulation or
	// native x86 software execution).
	RapidMode qef.Mode
	// FailOnInadmissible makes inadmissible offloads fail instead of
	// falling back (paper: "the RAPID operator can either fail or
	// fallback").
	FailOnInadmissible bool
	// Profile enables per-operator profiling of the RAPID execution; the
	// finished profile is returned in QueryResult.Profile. Also set by the
	// EXPLAIN ANALYZE prefix.
	Profile bool
	// DisablePruning turns off zone-map scan pruning for this query. Results
	// must be identical either way (the metamorphic test lanes assert it);
	// the switch exists for those lanes and for isolating pruning effects.
	DisablePruning bool
	// NoCache bypasses the query cache for this query (when one is
	// installed): no lookup, no singleflight, no admission of the result.
	NoCache bool
}

// QueryResult is the outcome of one query. The embedded Bill is the RAPID
// execution's cost (zero for host-engine queries, ~zero for cache hits).
type QueryResult struct {
	Rel *ops.Relation
	Bill

	Offloaded bool
	FellBack  bool
	// Timing breakdown (Fig 15): wall time inside RAPID execution vs the
	// host side (parse, optimize, result post-processing or full host
	// execution).
	RapidWall time.Duration
	HostWall  time.Duration
	// RapidSimSeconds is the bill's SimSeconds under the name benchmark/
	// reads; it goes when that reader moves to SimSeconds (ROADMAP 10(a)).
	RapidSimSeconds float64
	// Cost estimates behind the offload decision; 0 under ForceHost, which
	// takes none.
	EstRapidSec float64
	EstHostSec  float64
	Explain     string
	// Profile is the per-operator profile of the RAPID execution; non-nil
	// only when profiling was requested and the query ran on RAPID.
	Profile *obs.Profile
	// ProfileNote explains an absent profile when one was requested (the
	// query stayed on the host), so EXPLAIN ANALYZE never returns silence.
	ProfileNote string
	// QueryID is the fleet-wide query identifier assigned at issue, the key
	// into the query journal and the active-query table.
	QueryID uint64
}

// RapidFraction returns the share of elapsed wall time spent in RAPID.
func (r *QueryResult) RapidFraction() float64 {
	total := r.RapidWall + r.HostWall
	if total == 0 {
		return 0
	}
	return float64(r.RapidWall) / float64(total)
}

// Query parses, plans and executes a SQL query, deciding offload cost-based
// per §3.1 and enforcing the SCN admissibility rule of §3.3. An
// `EXPLAIN ANALYZE <query>` prefix executes the inner query with
// per-operator profiling and returns the profile in the result. Engine-wide
// query counters land in the database's metrics registry.
func (db *Database) Query(sql string, opts QueryOptions) (*QueryResult, error) {
	return db.QueryCtx(context.Background(), sql, opts)
}

// QueryCtx is Query observing a context: cancellation and deadlines are
// checked while the query waits for admission, at work-unit dispatch and at
// every tile boundary, so a canceled query stops within one tile and returns
// ctx.Err(). Cancellation and scheduler overload (sched.ErrOverloaded) are
// returned directly — they never fall back to the host engine (NoFallback).
// The lifecycle around the execution is RunQuery's.
func (db *Database) QueryCtx(ctx context.Context, sql string, opts QueryOptions) (*QueryResult, error) {
	return RunQuery(ctx, db, hostEngine{db}, sql, opts)
}

// hostEngine is the single SoC's side of the query lifecycle: the offload
// decision of §3.1, the SCN admissibility rule of §3.3, RAPID execution on
// the shared scheduler and the host row engine as fallback. The cache
// payloads and keys it supplies are in cache.go.
type hostEngine struct{ db *Database }

func (hostEngine) Analyzed(opts QueryOptions) QueryOptions {
	opts.Profile = true
	return opts
}

// Label names the engine the options ask for, before execution resolves it
// ("auto" = cost-based decision pending).
func (hostEngine) Label(opts QueryOptions) string {
	switch opts.Mode {
	case ForceHost:
		return "host"
	case ForceOffload:
		return opts.RapidMode.String()
	default:
		return "auto"
	}
}

func (hostEngine) Nodes() int { return 1 }

// Lookup exposes the loaded RAPID replicas to the binder.
func (e hostEngine) Lookup(name string) (*storage.Table, error) { return e.db.Lookup(name) }

// Lookup returns the loaded RAPID replica of a table: the database is the
// binder's catalog (sqlparse.Bind).
func (db *Database) Lookup(name string) (*storage.Table, error) {
	t, err := db.Table(name)
	if err != nil {
		return nil, err
	}
	rt := t.Rapid()
	if rt == nil {
		return nil, fmt.Errorf("hostdb: table %q not loaded into RAPID (run LOAD first)", name)
	}
	return rt, nil
}

// Finish feeds the hostdb_* query counters and labels the journal record
// with the engine that actually ran — for a failed ForceOffload query the
// one it was forced onto, as the active-query table showed it.
func (e hostEngine) Finish(id uint64, res *QueryResult, err error, opts QueryOptions, wall time.Duration) obs.QueryRecord {
	m := e.db.metrics
	m.Histogram("hostdb_query_seconds").Observe(wall.Seconds())
	m.Counter("hostdb_queries_total").Inc()
	rec := obs.QueryRecord{Mode: "host"}
	if err != nil {
		m.Counter("hostdb_queries_failed").Inc()
		if opts.Mode == ForceOffload {
			rec.Mode = opts.RapidMode.String()
		}
		return rec
	}
	if res.Offloaded {
		m.Counter("hostdb_queries_offloaded").Inc()
		rec.Mode = opts.RapidMode.String()
	} else {
		if res.FellBack {
			m.Counter("hostdb_queries_fellback").Inc()
		}
		m.Counter("hostdb_queries_host").Inc()
	}
	res.QueryID = id
	if res.Rel != nil {
		rec.Rows = int64(res.Rel.Rows())
	}
	res.Stamp(&rec)
	return rec
}

// Execute decides offload for a bound plan and runs it on RAPID or on the
// host row engine, both over the columns plan.Live leaves live. The plan is
// compiled once: the compiler's row estimates price the offload decision,
// and RAPID runs that compile. A plan the compiler rejects has no RAPID
// estimate; unless it is forced to the host it takes the RAPID path, whose
// failure falls back to the host row engine.
func (e hostEngine) Execute(ctx context.Context, node plan.Node, opts QueryOptions, h obs.ActiveHandle) (*QueryResult, error) {
	db := e.db
	node, err := plan.Live(node)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Explain: plan.Format(node)}
	// Admissibility (§3.3): every journal entry visible to the query must
	// already be propagated to RAPID. It is checked before the compile takes
	// the snapshots RAPID will read, so they hold every entry it saw
	// propagated. The background checkpointer normally keeps this true.
	// A plan forced to the host is neither compiled nor priced.
	admissible, scn := db.admissible(node)
	var compiled *qcomp.Compiled
	var cerr error
	if opts.Mode != ForceHost {
		if compiled, cerr = qcomp.Compile(node); cerr == nil {
			res.EstRapidSec, res.EstHostSec = compiled.OffloadBenefit()
		}
	}

	offload := false
	switch opts.Mode {
	case ForceHost:
		if opts.Profile {
			res.ProfileNote = "no DPU profile: query forced to host engine (profiling covers RAPID executions only)"
		}
	case ForceOffload:
		offload = true
	default:
		offload = cerr != nil || res.EstRapidSec < res.EstHostSec
		if !offload && opts.Profile {
			res.ProfileNote = fmt.Sprintf("no DPU profile: cost model kept query on host (est rapid %.3gs >= host %.3gs)", res.EstRapidSec, res.EstHostSec)
		}
	}

	if offload {
		switch {
		case admissible:
			rerr := cerr
			if rerr == nil {
				rerr = db.runRapid(ctx, compiled, opts, h, res)
			}
			if rerr == nil {
				res.Offloaded = true
				res.HostWall = h.Elapsed() - res.RapidWall
				return res, nil
			}
			if NoFallback(rerr) {
				return nil, rerr
			}
			// RAPID execution failed: fall back to the host plan (§3.2).
			if opts.Profile {
				res.ProfileNote = fmt.Sprintf("no DPU profile: RAPID execution failed (%v), query fell back to host", rerr)
			}
		case opts.FailOnInadmissible:
			return nil, fmt.Errorf("hostdb: query at SCN %d not admissible to RAPID", scn)
		case opts.Profile:
			res.ProfileNote = "no DPU profile: query not admissible to RAPID (pending journal), fell back to host"
		}
		res.FellBack = true
	}

	h.SetPhase("host-execute")
	rel, err := db.runHost(ctx, node)
	if err != nil {
		return nil, err
	}
	res.Rel = rel
	res.HostWall = h.Elapsed()
	return res, nil
}

// admissible checks the SCN rule for every table the plan touches; scn is
// the SCN the plan reads at.
func (db *Database) admissible(node plan.Node) (ok bool, scn uint64) {
	ok = true
	// The leaf function returns its argument: a visit, nothing is rebuilt.
	plan.MapLeaves(node, func(l plan.Node) (plan.Node, error) {
		if s, isScan := l.(*plan.Scan); isScan {
			scn = s.SCN
			if t, err := db.Table(s.Table.Name()); err == nil && t.PendingJournal() > 0 {
				ok = false
			}
		}
		return l, nil
	})
	return ok, scn
}

// runRapid is the RAPID operator (§3.1): it ships the compiled fragment to
// the RAPID node, triggers execution, and receives the result relation "over
// the network" into res. Execution runs in a Session on the shared-SoC
// scheduler: the query is admitted (possibly waiting, bounded
// by the run queue), its work units are multiplexed over the shared worker
// pool, and its admission slot is released when execution ends — success,
// failure or cancellation alike. Every execution is billed by Price, whether
// or not per-operator profiling was requested. On error only res.QueueWait is
// touched.
func (db *Database) runRapid(goCtx context.Context, compiled *qcomp.Compiled, opts QueryOptions, h obs.ActiveHandle, res *QueryResult) error {
	if db.rapidFault != nil {
		return db.rapidFault
	}
	h.SetPhase("queued")
	sess, err := OpenSession(goCtx, db.sched, opts.RapidMode, db.metrics, opts.DisablePruning)
	if err != nil {
		return err
	}
	defer sess.Close() // after the result is Flattened below
	h.SetPhase("executing")
	ctx := sess.Ctx
	var prof *obs.Profile
	if opts.Profile {
		prof = obs.NewProfile(opts.RapidMode.String(), ctx.SoC.Config().NumCores, dpu.FreqHz, compiled.SpanDefs())
		ctx.Prof = prof
	}
	start := time.Now()
	rel, err := compiled.Execute(ctx)
	wall := time.Since(start)
	res.QueueWait = sess.QueueWait()
	if err != nil {
		return err
	}
	u := ctx.Usage()
	if prof != nil {
		prof.Finalize(u.Totals(wall, res.QueueWait))
	}
	bill := Price(db.metrics, opts.RapidMode, 1, u.SimElapsed(), 0, u)
	bill.QueueWait = res.QueueWait
	res.Rel, res.RapidWall, res.Profile, res.Bill = rel.Flatten(), wall, prof, bill
	res.RapidSimSeconds = bill.SimSeconds
	return nil
}

// runHost executes the plan on the System X row engine and materializes the
// rows as a relation using the plan's output schema.
func (db *Database) runHost(ctx context.Context, node plan.Node) (*ops.Relation, error) {
	it, err := db.BuildIterator(node)
	if err != nil {
		return nil, err
	}
	rows, err := DrainCtx(ctx, it)
	if err != nil {
		return nil, err
	}
	fields := node.Schema()
	cols := make([]ops.Col, len(fields))
	data := make([]coltypes.Data, len(fields))
	for c, f := range fields {
		vals := make([]int64, len(rows))
		for i, r := range rows {
			vals[i] = r[c]
		}
		cols[c] = ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict}
		data[c] = coltypes.Of(vals)
	}
	return ops.NewRelation(cols, data)
}

// StartBackgroundCheckpointer launches the periodic journal propagation
// threads of §3.3. Stop with StopBackgroundCheckpointer.
func (db *Database) StartBackgroundCheckpointer(interval time.Duration) {
	db.mu.Lock()
	if db.stopCheckpointer != nil {
		db.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	db.stopCheckpointer = stop
	db.mu.Unlock()
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_ = db.CheckpointAll()
			}
		}
	}()
}

// StopBackgroundCheckpointer stops the background threads.
func (db *Database) StopBackgroundCheckpointer() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.stopCheckpointer != nil {
		close(db.stopCheckpointer)
		db.stopCheckpointer = nil
	}
}
