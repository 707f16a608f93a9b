package hostdb

import (
	"context"
	"errors"
	"strings"
	"time"
	"unicode"

	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qcache"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/sqlparse"
)

// Engine is what an execution engine supplies to RunQuery, the one query
// lifecycle; DESIGN.md "Query lifecycle" has the stage map and the full
// contract. O is the engine's option struct and R its result struct.
// Implementations are stateless single-pointer adapters (the single SoC's
// hostEngine, the tray's engine), so handing one to the driver allocates
// nothing.
type Engine[O, R any] interface {
	// Analyzed returns opts with the engine's profiling report switched on
	// (the EXPLAIN ANALYZE prefix).
	Analyzed(opts O) O
	// Label names the engine opts asks for, shown in the active-query table
	// while the query runs; Nodes is the SoC fan-out.
	Label(opts O) string
	Nodes() int
	// CacheMode keys the result cache on everything in opts that can change
	// the result surface or the error contract; "" opts the query out of the
	// cache.
	CacheMode(opts O) string
	// The engine is the binder's catalog (Lookup); Version is one table's
	// current version-vector entry (false: unknown table, not cacheable).
	sqlparse.Catalog
	Version(table string) (qcache.Version, bool)
	// Execute runs a bound plan — costing, admission, execution, billing —
	// moving h through its phases and observing ctx.
	Execute(ctx context.Context, bound plan.Node, opts O, h obs.ActiveHandle) (*R, error)
	// CacheEntry wraps a finished execution for the result cache (see
	// NewCacheEntry); nil keeps it out of the cache and away from flight
	// followers. FromCache builds the zero-billed result of a hit on it.
	CacheEntry(res *R) *qcache.Result
	FromCache(entry *qcache.Result, opts O) *R
	// SetCacheStatus stamps miss|stale|bypass on an executed result and on
	// whatever EXPLAIN ANALYZE report it carries.
	SetCacheStatus(res *R, opts O, status string)
	// Finish stamps the QueryID on res (nil exactly when err != nil), feeds
	// the engine's own per-query metrics, and returns the engine-specific
	// journal fields: Mode, Rows, Cycles, EnergyNJ, NetBytes, QueueWaitNs,
	// DMEMHighNow, Cache. The driver fills in the rest.
	Finish(id uint64, res *R, err error, opts O, wall time.Duration) obs.QueryRecord
}

// RunQuery drives one query through its whole lifecycle on engine e:
//
//	issue → normalize → result cache → singleflight → parse → bind →
//	e.Execute → publish → journal
//
// db supplies the fleet-wide state every engine shares: the QueryID
// authority and active-query table, the query cache, the SCN clock and the
// journal. Cancellation (ctx, or CancelQuery by ID) and scheduler overload
// surface as the query's error and are journaled as canceled / shed.
func RunQuery[O, R any](ctx context.Context, db *Database, e Engine[O, R], sql string, opts O) (*R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if inner, ok := stripExplainAnalyze(sql); ok {
		sql, opts = inner, e.Analyzed(opts)
	}
	// Issue: allocate the fleet-wide QueryID, register in the active-query
	// table (making the query cancelable by ID) and run under a derived
	// context so CancelQuery can reach it.
	qctx, cancel := qef.QueryContext(ctx)
	defer cancel()
	start := time.Now()
	id := db.active.NextID()
	h := db.active.Register(id, sql, e.Label(opts), e.Nodes(), cancel)
	defer h.Done()

	// Literal normalization feeds both the cache keys and the journal
	// fingerprint: repeated parameterized queries group under one template
	// regardless of whitespace, case or literal values. Statements the
	// lexer rejects keep the raw-SQL fingerprint and bypass the cache.
	norm, nerr := sqlparse.Normalize(sql)
	fp := norm.TemplateFP
	if nerr != nil {
		fp = obs.Fingerprint(sql)
	}

	res, err := runCached(qctx, db, e, sql, norm, nerr == nil, opts, h)
	wall := time.Since(start)

	// Completion: one journal record per issued query, terminal outcome
	// included, whether it succeeded, shed, canceled or failed.
	rec := e.Finish(id, res, err, opts, wall)
	rec.ID, rec.Fingerprint, rec.SQL, rec.Nodes = id, fp, sql, e.Nodes()
	rec.Outcome = outcomeFor(err)
	rec.WallNs, rec.Start = int64(wall), start.UnixNano()
	if err != nil {
		rec.Error = err.Error()
	}
	db.qjournal.Record(rec)
	return res, err
}

// runCached wraps the result cache around bindAndExecute: lookup (hits
// return at once, before any scheduler admission), singleflight collapse of
// concurrent identical misses, the execution, and validate-before-publish
// admission of the finished result. With no cache installed it degenerates
// to a plain bindAndExecute.
func runCached[O, R any](ctx context.Context, db *Database, e Engine[O, R], sql string, norm sqlparse.Normalized, normOK bool, opts O, h obs.ActiveHandle) (*R, error) {
	cache := db.QueryCache()
	mode := ""
	if cache != nil && normOK {
		mode = e.CacheMode(opts)
	}
	if mode == "" {
		if cache != nil {
			cache.NoteBypass()
		}
		res, _, err := bindAndExecute(ctx, db, e, false, sql, opts, h)
		if err == nil && cache != nil {
			e.SetCacheStatus(res, opts, "bypass")
		}
		return res, err
	}

	key := qcache.Key{Template: norm.TemplateFP, Params: norm.ParamsFP, Mode: mode, Nodes: e.Nodes()}
	status := "miss"
	var flight *qcache.Flight
	for {
		if r, st := cache.GetResult(key, e.Version); st == qcache.Hit {
			return e.FromCache(r, opts), nil
		} else if st == qcache.Stale {
			status = "stale"
		}
		f, leader := cache.Begin(key)
		if leader {
			flight = f
			break
		}
		if f == nil {
			continue // published between the lookup and Begin
		}
		// Another client is executing this exact key: wait for its result
		// instead of re-executing (thundering-herd collapse). ok=false
		// means the leader failed or produced an unshareable result — loop
		// back and compete for leadership. So does a result whose versions
		// have moved: the leader validated before it settled the flight, and
		// this client may have arrived after a mutation in between.
		if r, ok := f.Wait(ctx); ok && qcache.Validate(r.Versions, e.Version) {
			return e.FromCache(r, opts), nil
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
	res, v0, err := bindAndExecute(ctx, db, e, true, sql, opts, h)
	if err != nil {
		return nil, err
	}
	e.SetCacheStatus(res, opts, status)
	// Publish only when the version vector captured before parse/bind
	// still holds after execution — an interleaved mutation voids the
	// entry (it may mix old and new data).
	if v0 != nil && qcache.Validate(v0, e.Version) {
		if entry = e.CacheEntry(res); entry != nil {
			// Followers share the entry even if admission rejects it.
			entry.Versions, entry.WallNs = v0, int64(time.Since(execStart))
			cache.PutResult(key, entry)
		}
	}
	return res, nil
}

// bindAndExecute parses and binds the statement and hands the bound plan to
// the engine. With capture set it also returns v0, the version vector
// captured before binding, for the caller's validate-before-publish; nil v0
// means the result must not be published.
func bindAndExecute[O, R any](ctx context.Context, db *Database, e Engine[O, R], capture bool, sql string, opts O, h obs.ActiveHandle) (*R, []qcache.Version, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	h.SetPhase("planning")
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	var v0 []qcache.Version
	if capture {
		v0 = captureVersions(e.Version, sqlparse.StmtTables(stmt))
	}
	bound, err := sqlparse.Bind(stmt, e, db.CurrentSCN())
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Execute(ctx, bound, opts, h)
	if err != nil {
		return nil, nil, err
	}
	return res, v0, nil
}

// captureVersions snapshots the version vector of a table list, in order;
// nil when any table is unknown (not cacheable).
func captureVersions(version func(string) (qcache.Version, bool), tables []string) []qcache.Version {
	out := make([]qcache.Version, 0, len(tables))
	for _, name := range tables {
		v, ok := version(name)
		if !ok {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// NewCacheEntry wraps a finished execution as a result-cache entry: the
// engine's payload (whatever its FromCache needs), the relation's resident
// footprint for the byte budget, and the cost (its bill) a later hit reports
// as saved. The driver adds the version vector and the execution wall time.
func NewCacheEntry(payload any, rel *ops.Relation, bill Bill) *qcache.Result {
	e := &qcache.Result{Payload: payload, Bytes: 64, CyclesSaved: bill.Cycles, EnergySavedNJ: bill.EnergyNJ}
	if rel != nil {
		// Column payloads at physical width plus a small per-column overhead.
		for c := range rel.Cols {
			e.Bytes += 64 + int64(rel.Col(c).SizeBytes())
		}
	}
	return e
}

// stripExplainAnalyze detects the EXPLAIN ANALYZE prefix (two words, any
// case, any whitespace around them; bare EXPLAIN is the callers' plan
// output) and returns the inner query. It runs on every query, cache hits
// included, so it scans in place and allocates nothing.
func stripExplainAnalyze(sql string) (string, bool) {
	rest, ok := cutKeyword(sql, "EXPLAIN")
	if ok {
		rest, ok = cutKeyword(rest, "ANALYZE")
	}
	if !ok {
		return sql, false
	}
	return strings.TrimSpace(rest), true
}

// cutKeyword skips leading whitespace and then word, which must end at
// whitespace or the end of s.
func cutKeyword(s, word string) (string, bool) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if len(s) < len(word) || !strings.EqualFold(s[:len(word)], word) {
		return s, false
	}
	s = s[len(word):]
	return s, s == "" || strings.TrimLeftFunc(s, unicode.IsSpace) != s
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

// NoFallback reports whether an execution error must be returned as the
// query's outcome instead of triggering fallback to the host row engine:
// the query was canceled / timed out, shed by admission control, or the
// database closed. The caller asked the whole query to stop (or be shed),
// not just the offload.
func NoFallback(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, sched.ErrOverloaded) ||
		errors.Is(err, sched.ErrClosed)
}
