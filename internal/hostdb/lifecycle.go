package hostdb

import (
	"context"
	"errors"
	"fmt"
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

// Answer is the result core both engines' results embed, and all of a
// result the lifecycle driver touches: it stamps QueryID and Cache,
// publishes an Answer to the result cache and serves a hit as a fresh result
// whose Answer is the entry's.
type Answer struct {
	Rel *ops.Relation
	Bill
	QueryID uint64 // fleet-wide, assigned at issue: the journal's and active-query table's key
	Explain string // the bound logical plan
	// Offloaded: RAPID answered. FellBack: RAPID was attempted and the host
	// row engine answered instead; such an answer is never published.
	Offloaded bool
	FellBack  bool
}

func (a *Answer) answer() *Answer { return a }

// result is an engine's result type R reached through its embedded Answer.
type result[R any] interface {
	*R
	answer() *Answer
}

// Engine is what an execution engine supplies to RunQuery, the one query
// lifecycle; DESIGN.md "Query lifecycle" has the stage map and the full
// contract. O is the engine's option struct and R its result struct, which
// embeds Answer. Implementations are stateless single-pointer adapters (the
// single SoC's hostEngine, the tray's engine), so handing one to the driver
// allocates nothing.
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
	// CacheNote writes the `cache:` line (CacheLine) of res, whose Cache
	// is set, into the report opts asked for, if any; hit is the entry a
	// hit was served from, nil on an execution.
	CacheNote(res *R, opts O, hit *qcache.Result)
	// Finish feeds the engine's own per-query metrics (res is nil exactly
	// when err != nil) and names the mode that ran for the journal.
	Finish(res *R, err error, opts O, wall time.Duration) string
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
func RunQuery[O, R any, P result[R]](ctx context.Context, db *Database, e Engine[O, R], sql string, opts O) (*R, error) {
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

	res, err := runCached[O, R, P](qctx, db, e, sql, norm, nerr == nil, opts, h)
	wall := time.Since(start)

	// Completion: one journal record per issued query, terminal outcome
	// included, whether it succeeded, shed, canceled or failed.
	rec := obs.QueryRecord{
		ID: id, Fingerprint: fp, SQL: sql, Nodes: e.Nodes(),
		Mode:    e.Finish(res, err, opts, wall),
		Outcome: outcomeFor(err),
		WallNs:  int64(wall), Start: start.UnixNano(),
	}
	if err != nil {
		rec.Error = err.Error()
	} else {
		a := P(res).answer()
		a.QueryID = id
		if a.Rel != nil {
			rec.Rows = int64(a.Rel.Rows())
		}
		a.Stamp(&rec)
	}
	db.qjournal.Record(rec)
	return res, err
}

// runCached wraps the result cache around bindAndExecute: lookup (hits
// return at once, before any scheduler admission), singleflight collapse of
// concurrent identical misses, the execution, and validate-before-publish
// admission of the finished result. With no cache installed it degenerates
// to a plain bindAndExecute.
func runCached[O, R any, P result[R]](ctx context.Context, db *Database, e Engine[O, R], sql string, norm sqlparse.Normalized, normOK bool, opts O, h obs.ActiveHandle) (*R, error) {
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
			P(res).answer().Cache = "bypass"
			e.CacheNote(res, opts, nil)
		}
		return res, err
	}

	key := qcache.Key{Template: norm.TemplateFP, Params: norm.ParamsFP, Mode: mode, Nodes: e.Nodes()}
	status := "miss"
	var flight *qcache.Flight
	for {
		if r, st := cache.GetResult(key, e.Version); st == qcache.Hit {
			return serve[O, R, P](e, r, opts), nil
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
			return serve[O, R, P](e, r, opts), nil
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
	a := P(res).answer()
	a.Cache = status
	e.CacheNote(res, opts, nil)
	// Publish only when the version vector captured before parse/bind
	// still holds after execution — an interleaved mutation voids the
	// entry (it may mix old and new data). A fallback answer is never
	// published: it is transitional (pending journal) and would leak a
	// host answer into a strict-offload key after checkpointing.
	if v0 != nil && !a.FellBack && qcache.Validate(v0, e.Version) {
		// Followers share the entry even if admission rejects it.
		entry = newCacheEntry(a)
		entry.Versions, entry.WallNs = v0, int64(time.Since(execStart))
		cache.PutResult(key, entry)
	}
	return res, nil
}

// serve builds the result of a hit on entry, or of a flight follower served
// the leader's entry: a fresh R whose Answer is the entry's — the shared
// relation, nothing billed, the producing execution's cost as saved.
func serve[O, R any, P result[R]](e Engine[O, R], entry *qcache.Result, opts O) *R {
	res := new(R)
	*P(res).answer() = *entry.Payload.(*Answer)
	e.CacheNote(res, opts, entry)
	return res
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

// newCacheEntry wraps a finished execution's answer as a result-cache
// entry: the Answer every later hit starts from (the shared relation, which
// is read-only once returned, and the bill's Saved form), the relation's
// resident footprint for the byte budget, and the cost a hit reports as
// saved. The caller adds the version vector and the execution wall time.
func newCacheEntry(a *Answer) *qcache.Result {
	payload := &Answer{Rel: a.Rel, Bill: a.Saved(), Explain: a.Explain, Offloaded: a.Offloaded}
	e := &qcache.Result{Payload: payload, Bytes: 64, CyclesSaved: a.Cycles, EnergySavedNJ: a.EnergyNJ}
	if a.Rel != nil {
		// Column payloads at physical width plus a small per-column overhead.
		for c := range a.Rel.Cols {
			e.Bytes += 64 + int64(a.Rel.Col(c).SizeBytes())
		}
	}
	return e
}

// CacheLine is a report's `cache:` line for a result whose Cache is status;
// on a hit, hit is the entry it was served from and the line adds what the
// execution behind the entry cost.
func CacheLine(status string, hit *qcache.Result) string {
	if hit == nil {
		return "cache: " + status
	}
	return fmt.Sprintf("cache: hit — served from result cache; saved ~%d cycles, ~%d nJ, ~%.3fms execution",
		hit.CyclesSaved, hit.EnergySavedNJ, float64(hit.WallNs)/1e6)
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
