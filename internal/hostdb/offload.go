package hostdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"rapid/internal/coltypes"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/power"
	"rapid/internal/qcache"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/sqlparse"
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
	// InjectRapidFailure simulates a RAPID node failure mid-query to
	// exercise the fallback path.
	InjectRapidFailure bool
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

// QueryResult is the outcome of one query.
type QueryResult struct {
	Rel *ops.Relation

	Offloaded bool
	FellBack  bool
	// Timing breakdown (Fig 15): wall time inside RAPID execution vs the
	// host side (parse, optimize, result post-processing or full host
	// execution).
	RapidWall time.Duration
	HostWall  time.Duration
	// RapidSimSeconds is the DPU-simulated execution time (ModeDPU only).
	RapidSimSeconds float64
	// X86ModelSeconds is the same work modeled on a dual-socket x86 (the
	// hardware-attribution denominator of §7.4; ModeDPU only).
	X86ModelSeconds float64
	// Cost estimates behind the offload decision.
	EstRapidSec float64
	EstHostSec  float64
	Explain     string
	// Profile is the per-operator profile of the RAPID execution; non-nil
	// only when profiling was requested and the query ran on RAPID.
	Profile *obs.Profile
	// ProfileNote explains an absent profile when one was requested (the
	// query stayed on the host), so EXPLAIN ANALYZE never returns silence.
	ProfileNote string
	// Energy is the activity-based energy breakdown of the RAPID execution
	// (ModeDPU offloads only; zero otherwise — check HasEnergy).
	Energy    power.Breakdown
	HasEnergy bool
	// QueueWait is the time the query spent in the shared-SoC scheduler's
	// admission queue before RAPID execution began (zero for host-engine
	// queries and immediate admissions).
	QueueWait time.Duration
	// QueryID is the fleet-wide query identifier assigned at issue, the key
	// into the query journal and the active-query table.
	QueryID uint64
	// Cycles is the total dpCore cycle count of the RAPID execution (ModeDPU
	// offloads; zero otherwise).
	Cycles int64
	// EnergyNJ is the total (activity + idle) energy of the RAPID execution
	// in nanojoules — the same integer fed to the rapid_*_energy counters.
	EnergyNJ int64
	// DMEMHighWater is the largest per-core scratchpad reservation the query
	// reached, bytes (ModeDPU offloads; zero otherwise).
	DMEMHighWater int
	// TilesPruned is the number of storage chunks zone-map pruning skipped
	// during the RAPID execution (zero on the host path or with pruning
	// disabled).
	TilesPruned int64
	// Cache reports this query's result-cache interaction: "hit" (served
	// without execution, ~zero marginal cycles/energy), "miss", "stale"
	// (an entry existed but its version vector moved), "bypass" (cache
	// installed but ineligible: NoCache, failure injection, unlexable
	// statement), or "" when no cache is installed.
	Cache string
	// CyclesSaved/EnergySavedNJ carry the billed cost of the execution that
	// produced a cached result — the estimate of what this hit avoided.
	// Zero on anything but a hit.
	CyclesSaved   int64
	EnergySavedNJ int64
}

// RapidFraction returns the share of elapsed wall time spent in RAPID.
func (r *QueryResult) RapidFraction() float64 {
	total := r.RapidWall + r.HostWall
	if total == 0 {
		return 0
	}
	return float64(r.RapidWall) / float64(total)
}

// catalogAdapter exposes loaded RAPID replicas to the binder.
type catalogAdapter struct{ db *Database }

func (c catalogAdapter) Lookup(name string) (*storage.Table, error) {
	t, err := c.db.Table(name)
	if err != nil {
		return nil, err
	}
	rt := t.Rapid()
	if rt == nil {
		return nil, fmt.Errorf("hostdb: table %q not loaded into RAPID (run LOAD first)", name)
	}
	return rt, nil
}

// stripExplainAnalyze detects the EXPLAIN ANALYZE prefix (two words,
// case-insensitive; bare EXPLAIN is handled by the callers' plan output)
// and returns the inner query.
func stripExplainAnalyze(sql string) (string, bool) {
	rest := strings.TrimSpace(sql)
	fields := strings.Fields(rest)
	if len(fields) >= 2 && strings.EqualFold(fields[0], "EXPLAIN") && strings.EqualFold(fields[1], "ANALYZE") {
		idx := strings.Index(strings.ToUpper(rest), "ANALYZE") + len("ANALYZE")
		return strings.TrimSpace(rest[idx:]), true
	}
	return sql, false
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
// returned directly — they never fall back to the host engine, since the
// caller asked the whole query to stop (or be shed), not just the offload.
func (db *Database) QueryCtx(ctx context.Context, sql string, opts QueryOptions) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if inner, ok := stripExplainAnalyze(sql); ok {
		sql = inner
		opts.Profile = true
	}
	// Issue: allocate the fleet-wide QueryID, register in the active-query
	// table (making the query cancelable by ID) and run under a derived
	// context so CancelQuery can reach it.
	qctx, cancel := qef.QueryContext(ctx)
	defer cancel()
	id := db.active.NextID()
	h := db.active.Register(id, sql, requestedMode(opts), 1, cancel)
	defer h.Done()

	// Literal normalization feeds both the cache keys and the journal
	// fingerprint: repeated parameterized queries group under one template
	// regardless of whitespace, case or literal values. Statements the
	// lexer rejects keep the raw-SQL fingerprint and bypass the cache.
	norm, normOK := normalizeForCache(sql)
	fp := obs.Fingerprint(sql)
	if normOK {
		fp = norm.TemplateFP
	}

	start := time.Now()
	res, err := db.query(qctx, sql, norm, normOK, opts, h)
	wall := time.Since(start)
	m := db.metrics
	m.Histogram("hostdb_query_seconds").Observe(wall.Seconds())
	m.Counter("hostdb_queries_total").Inc()
	switch {
	case err != nil:
		m.Counter("hostdb_queries_failed").Inc()
	case res.Offloaded:
		m.Counter("hostdb_queries_offloaded").Inc()
		if res.FellBack {
			// Not reachable today (FellBack implies !Offloaded), kept so the
			// counters stay truthful if the retry semantics ever change.
			m.Counter("hostdb_queries_fellback").Inc()
		}
	default:
		if res.FellBack {
			m.Counter("hostdb_queries_fellback").Inc()
		}
		m.Counter("hostdb_queries_host").Inc()
	}

	// Completion: one journal record per issued query, terminal outcome
	// included, whether it succeeded, shed, canceled or failed.
	rec := obs.QueryRecord{
		ID: id, Fingerprint: fp, SQL: sql,
		Mode: "host", Nodes: 1,
		Outcome: outcomeFor(err),
		WallNs:  int64(wall),
		Start:   start.UnixNano(),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if res != nil {
		if res.Offloaded {
			rec.Mode = opts.RapidMode.String()
		}
		if res.Rel != nil {
			rec.Rows = int64(res.Rel.Rows())
		}
		rec.Cycles = res.Cycles
		rec.EnergyNJ = res.EnergyNJ
		rec.QueueWaitNs = int64(res.QueueWait)
		rec.DMEMHighNow = int64(res.DMEMHighWater)
		rec.Cache = res.Cache
		res.QueryID = id
	}
	db.qjournal.Record(rec)
	return res, err
}

// requestedMode labels the engine the options ask for, before execution
// resolves it ("auto" = cost-based decision pending).
func requestedMode(opts QueryOptions) string {
	switch opts.Mode {
	case ForceHost:
		return "host"
	case ForceOffload:
		return opts.RapidMode.String()
	default:
		return "auto"
	}
}

// outcomeFor classifies a query's terminal state for the journal.
func outcomeFor(err error) obs.QueryOutcome {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, sched.ErrOverloaded):
		return obs.OutcomeShed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeCanceled
	default:
		return obs.OutcomeError
	}
}

// noFallback reports whether a RAPID execution error must be returned as the
// query's outcome instead of triggering host fallback: the query was
// canceled / timed out, shed by admission control, or the database closed.
func noFallback(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, sched.ErrOverloaded) ||
		errors.Is(err, sched.ErrClosed)
}

// query orchestrates the cache tiers around queryExec (DESIGN.md §10):
// result-cache lookup (hits return immediately, bypassing scheduler
// admission), singleflight collapse of concurrent identical misses, the
// actual execution, and validate-before-publish admission of the finished
// result. With no cache installed it degenerates to a plain queryExec.
func (db *Database) query(ctx context.Context, sql string, norm sqlparse.Normalized, normOK bool, opts QueryOptions, h obs.ActiveHandle) (*QueryResult, error) {
	cache := db.QueryCache()
	cacheable := cache != nil && normOK && !opts.NoCache && !opts.InjectRapidFailure
	if !cacheable {
		if cache != nil {
			cache.NoteBypass()
		}
		res, _, err := db.queryExec(ctx, sql, norm, false, opts, h)
		if err == nil && cache != nil {
			res.Cache = "bypass"
			annotateCacheStatus(res, opts, "bypass")
		}
		return res, err
	}

	key := qcache.Key{Template: norm.TemplateFP, Params: norm.ParamsFP, Mode: cacheModeKey(opts), Nodes: 1}
	status := "miss"
	var flight *qcache.Flight
	for {
		if r, st := cache.GetResult(key, db.cacheVersion); st == qcache.Hit {
			return cachedHitResult(r, opts, "hit"), nil
		} else if st == qcache.Stale {
			status = "stale"
		}
		f, leader := cache.Begin(key)
		if leader {
			flight = f
			break
		}
		// Another client is executing this exact key: wait for its result
		// instead of re-executing (thundering-herd collapse). ok=false
		// means the leader failed or produced an unshareable result — loop
		// back and compete for leadership.
		if r, ok := f.Wait(ctx); ok {
			return cachedHitResult(r, opts, "hit"), nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Leader path: always settle the flight, success or not, so followers
	// never block past this execution.
	var entry *qcache.Result
	defer func() { flight.Finish(entry) }()

	execStart := time.Now()
	res, v0, err := db.queryExec(ctx, sql, norm, true, opts, h)
	if err != nil {
		return nil, err
	}
	res.Cache = status
	annotateCacheStatus(res, opts, status)
	// Publish only when the version vector captured before parse/bind
	// still holds after execution — an interleaved mutation voids the
	// entry (it may mix old and new data). Fallback results are never
	// published: they are transitional (pending journal) and would leak
	// host-fallback answers into strict-offload keys after checkpointing.
	if !res.FellBack && v0 != nil {
		if cur, ok := db.cacheVersions(versionNames(v0)); ok && versionsEqual(v0, cur) {
			e := buildCacheEntry(res, v0, int64(time.Since(execStart)))
			entry = e // share with flight followers even if admission rejects
			cache.PutResult(key, e)
		}
	}
	return res, nil
}

// queryExec parses (or serves from the plan cache), binds, decides offload
// and executes one query. When usePlanCache is set it also captures the
// pre-bind version vector v0, later used for validate-before-publish.
func (db *Database) queryExec(ctx context.Context, sql string, norm sqlparse.Normalized, usePlanCache bool, opts QueryOptions, h obs.ActiveHandle) (*QueryResult, []qcache.Version, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	h.SetPhase("planning")
	hostStart := time.Now()
	cache := db.QueryCache()
	querySCN := db.CurrentSCN()
	var node plan.Node
	var v0 []qcache.Version
	planKey := qcache.PlanKey{Template: norm.TemplateFP, Params: norm.ParamsFP, Scope: planScopeHost}
	if usePlanCache && cache != nil {
		if pe := cache.GetPlan(planKey, db.cacheVersion); pe != nil {
			if cloned, cerr := plan.CloneAtSCN(pe.Root, querySCN); cerr == nil {
				// Parse and bind skipped: the cached skeleton is re-stamped
				// to this query's SCN. Costing, admissibility and zone
				// pruning still run against the fresh snapshot below.
				node = cloned
				v0 = pe.Versions
			}
		}
	}
	if node == nil {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, nil, err
		}
		if usePlanCache && cache != nil {
			v0, _ = db.cacheVersions(sqlparse.StmtTables(stmt))
		}
		node, err = sqlparse.Bind(stmt, catalogAdapter{db}, querySCN)
		if err != nil {
			return nil, nil, err
		}
		if usePlanCache && cache != nil && v0 != nil {
			// Same validate-before-publish discipline as results: literals
			// were encoded against the dictionaries as of v0, so the
			// skeleton is only sound if nothing moved during binding.
			if cur, ok := db.cacheVersions(versionNames(v0)); ok && versionsEqual(v0, cur) {
				cache.PutPlan(planKey, &qcache.Plan{Root: node, Versions: v0})
			} else {
				v0 = nil
			}
		}
	}
	res := &QueryResult{Explain: plan.Format(node)}
	res.EstRapidSec, res.EstHostSec = qcomp.OffloadBenefit(node)

	offload := false
	switch opts.Mode {
	case ForceHost:
		if opts.Profile {
			res.ProfileNote = "no DPU profile: query forced to host engine (profiling covers RAPID executions only)"
		}
	case ForceOffload:
		offload = true
	default:
		offload = res.EstRapidSec < res.EstHostSec
		if !offload && opts.Profile {
			res.ProfileNote = fmt.Sprintf("no DPU profile: cost model kept query on host (est rapid %.3gs >= host %.3gs)", res.EstRapidSec, res.EstHostSec)
		}
	}

	if offload {
		// Admissibility (§3.3): every journal entry visible to the query
		// must already be propagated to RAPID. The background checkpointer
		// normally keeps this true.
		admissible := db.admissible(node)
		if !admissible && opts.FailOnInadmissible {
			return nil, nil, fmt.Errorf("hostdb: query at SCN %d not admissible to RAPID", querySCN)
		}
		if admissible {
			run, rerr := db.runRapid(ctx, node, opts, h)
			res.QueueWait = run.queueWait
			if rerr == nil {
				res.Rel = run.rel
				res.Offloaded = true
				res.RapidWall = run.wall
				res.RapidSimSeconds = run.simSec
				res.X86ModelSeconds = run.x86Sec
				res.Profile = run.prof
				res.Energy = run.energy
				res.HasEnergy = run.hasEnergy
				res.Cycles = run.cycles
				res.EnergyNJ = run.energyNJ
				res.DMEMHighWater = run.dmemHigh
				res.TilesPruned = run.tilesPruned
				res.HostWall = time.Since(hostStart) - run.wall
				return res, v0, nil
			}
			if noFallback(rerr) {
				return nil, nil, rerr
			}
			// RAPID execution failed: fall back to the host plan (§3.2).
			res.FellBack = true
			if opts.Profile {
				res.ProfileNote = fmt.Sprintf("no DPU profile: RAPID execution failed (%v), query fell back to host", rerr)
			}
		} else {
			res.FellBack = true
			if opts.Profile {
				res.ProfileNote = "no DPU profile: query not admissible to RAPID (pending journal), fell back to host"
			}
		}
	}

	h.SetPhase("host-execute")
	rel, err := db.runHost(ctx, node)
	if err != nil {
		return nil, nil, err
	}
	res.Rel = rel
	res.HostWall = time.Since(hostStart) - res.RapidWall
	return res, v0, nil
}

// versionNames extracts the table-name footprint of a version vector.
func versionNames(vs []qcache.Version) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return names
}

// annotateCacheStatus surfaces the cache interaction in EXPLAIN ANALYZE
// output: profiled RAPID executions get a `cache:` line in the profile,
// host-side runs get it appended to the profile note.
func annotateCacheStatus(res *QueryResult, opts QueryOptions, status string) {
	if !opts.Profile || status == "" {
		return
	}
	if res.Profile != nil {
		res.Profile.SetCacheNote(status)
		return
	}
	if res.ProfileNote != "" {
		res.ProfileNote += "; cache: " + status
	} else {
		res.ProfileNote = "cache: " + status
	}
}

// admissible checks the SCN rule for every table the plan touches.
func (db *Database) admissible(node plan.Node) bool {
	ok := true
	walkScans(node, func(s *plan.Scan) {
		if t, err := db.Table(s.Table.Name()); err == nil {
			if t.PendingJournal() > 0 {
				ok = false
			}
		}
	})
	return ok
}

func walkScans(n plan.Node, fn func(*plan.Scan)) {
	if s, ok := n.(*plan.Scan); ok {
		fn(s)
		return
	}
	for _, c := range n.Children() {
		walkScans(c, fn)
	}
}

// rapidRun is the outcome of one RAPID execution.
type rapidRun struct {
	rel         *ops.Relation
	wall        time.Duration
	queueWait   time.Duration
	simSec      float64
	x86Sec      float64
	prof        *obs.Profile
	energy      power.Breakdown
	hasEnergy   bool
	cycles      int64
	energyNJ    int64 // activity + idle nanojoules, as fed to the counters
	dmemHigh    int   // max per-core DMEM high-water, bytes
	tilesPruned int64 // chunks skipped by zone-map pruning
}

// runRapid is the RAPID operator (§3.1): it serializes the fragment plan to
// the RAPID node (here: compiles it), triggers execution, and receives the
// result relation "over the network". Execution goes through the shared-SoC
// scheduler: the query is admitted (possibly waiting, bounded by the run
// queue), its work units are multiplexed over the shared worker pool, and
// its admission slot is released when execution ends — success, failure or
// cancellation alike. Every DPU execution feeds the engine-wide telemetry
// counters and the activity energy model, whether or not per-operator
// profiling was requested.
func (db *Database) runRapid(goCtx context.Context, node plan.Node, opts QueryOptions, h obs.ActiveHandle) (rapidRun, error) {
	if opts.InjectRapidFailure {
		return rapidRun{}, fmt.Errorf("hostdb: injected RAPID node failure")
	}
	compiled, err := qcomp.Compile(node)
	if err != nil {
		return rapidRun{}, err
	}
	ctx := qef.NewContext(opts.RapidMode)
	ctx.Metrics = db.metrics
	ctx.NoPrune = opts.DisablePruning
	h.SetPhase("queued")
	adm, err := db.sched.Admit(goCtx, sched.Request{Cores: ctx.Workers(), QueryID: h.ID()})
	if err != nil {
		return rapidRun{}, err
	}
	defer adm.Release()
	h.SetPhase("executing")
	ctx.SetGoContext(goCtx)
	ctx.Exec = adm
	var prof *obs.Profile
	if opts.Profile {
		prof = obs.NewProfile(opts.RapidMode.String(), ctx.SoC.Config().NumCores, ctx.SoC.Config().FreqHz, compiled.SpanDefs())
		ctx.Prof = prof
	}
	start := time.Now()
	rel, err := compiled.Execute(ctx)
	wall := time.Since(start)
	if err != nil {
		return rapidRun{wall: wall, queueWait: adm.QueueWait()}, err
	}
	run := rapidRun{rel: rel, wall: wall, queueWait: adm.QueueWait(), simSec: ctx.SimElapsed(), prof: prof, tilesPruned: ctx.TilesPruned()}
	rdT, wrT := ctx.DMS.TotalsByDir()
	if prof != nil {
		busR, busW := ctx.BusSeconds()
		cores := ctx.SoC.Cores()
		coreCy := make([]int64, len(cores))
		for i, co := range cores {
			coreCy[i] = int64(co.Cycles())
		}
		prof.Finalize(obs.Totals{
			WallSeconds:      wall.Seconds(),
			QueueWaitSeconds: run.queueWait.Seconds(),
			SimSeconds:       run.simSec,
			BusReadSeconds:   busR,
			BusWriteSeconds:  busW,
			CoreCycles:       coreCy,
			DMSReadBytes:     rdT.Bytes,
			DMSWriteBytes:    wrT.Bytes,
			DMSReadSeconds:   rdT.Seconds,
			DMSWriteSeconds:  wrT.Seconds,
		})
	}
	totalCycles := int64(ctx.SoC.TotalCycles())
	run.cycles = totalCycles
	run.x86Sec = power.X86ModelSeconds(float64(totalCycles), ctx.DMS.Totals().Bytes)
	if opts.RapidMode == qef.ModeDPU {
		run.energy = power.DefaultEnergyModel().Activity(totalCycles, rdT.Bytes, wrT.Bytes, run.simSec)
		run.hasEnergy = true
		// The per-query histograms observe the exact integers added to the
		// counters, so histogram sums reconcile with counter totals exactly
		// (both stay below 2^53, where float64 addition is lossless).
		actNJ := int64(run.energy.ActivityJoules() * 1e9)
		idleNJ := int64(run.energy.IdleJ * 1e9)
		run.energyNJ = actNJ + idleNJ
		for _, co := range ctx.SoC.Cores() {
			if hw := co.DMEM().HighWater(); hw > run.dmemHigh {
				run.dmemHigh = hw
			}
		}
		m := db.metrics
		m.Counter("rapid_dpcore_cycles_total").Add(totalCycles)
		m.Counter("rapid_dms_read_bytes_total").Add(rdT.Bytes)
		m.Counter("rapid_dms_write_bytes_total").Add(wrT.Bytes)
		m.Counter("rapid_dms_descriptors_total").Add(int64(rdT.Descriptors + wrT.Descriptors))
		m.Counter("rapid_sim_microseconds_total").Add(int64(run.simSec * 1e6))
		m.Counter("rapid_activity_energy_nanojoules_total").Add(actNJ)
		m.Counter("rapid_idle_energy_nanojoules_total").Add(idleNJ)
		m.Histogram("rapid_query_cycles", obs.DefCycleBuckets...).Observe(float64(totalCycles))
		m.Histogram("rapid_query_energy_nanojoules", obs.DefEnergyNJBuckets...).Observe(float64(run.energyNJ))
	}
	return run, nil
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
	data := make([][]int64, len(fields))
	for _, r := range rows {
		for c := range fields {
			data[c] = append(data[c], r[c])
		}
	}
	for c, f := range fields {
		col := data[c]
		if col == nil {
			col = []int64{}
		}
		cols[c] = ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict, Data: coltypes.I64(col)}
	}
	return ops.NewRelation(cols)
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
