// Package rapid is a Go reproduction of RAPID, the in-memory analytical
// query processing engine of Balkesen et al., SIGMOD 2018 ("RAPID:
// In-Memory Analytical Query Processing Engine with Extreme Performance per
// Watt").
//
// The package exposes the full system: a host RDBMS ("System X") holding
// the source-of-truth row data, and the RAPID columnar engine that
// analytical queries are offloaded to. The RAPID engine runs either as a
// cycle-accounted simulation of the paper's 32-core DPU (EngineRapidDPU) or
// natively as fast vectorized Go (EngineRapidX86 — the paper's
// software-only configuration).
//
// Quick start:
//
//	db := rapid.Open()
//	db.CreateTable("t", rapid.IntCol("id"), rapid.DecimalCol("amount", 2))
//	db.Insert("t", [][]rapid.Value{{rapid.Int(1), rapid.Decimal("9.99")}})
//	db.Load("t") // build the RAPID replica
//	res, err := db.Query(`SELECT SUM(amount) FROM t`)
package rapid

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rapid/internal/cluster"
	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qcache"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

// ActiveQuery is one in-flight query as reported by ActiveQueries.
type ActiveQuery = obs.ActiveQuery

// QueryRecord is one completed query's journal entry.
type QueryRecord = obs.QueryRecord

// ErrOverloaded is returned when the shared-SoC scheduler's admission queue
// is full: the query was shed, not queued. Callers should retry with backoff
// or reduce concurrency.
var ErrOverloaded = sched.ErrOverloaded

// Value is a logical cell value.
type Value = storage.Value

// Value constructors.

// Int builds an integer value.
func Int(v int64) Value { return storage.IntValue(v) }

// Decimal parses a decimal literal ("12.34"); it panics on malformed input
// (use ParseDecimal for error handling).
func Decimal(s string) Value { return storage.DecString(s) }

// ParseDecimal parses a decimal literal.
func ParseDecimal(s string) (Value, error) {
	d, err := encoding.ParseDecimal(s)
	if err != nil {
		return Value{}, err
	}
	return storage.DecValue(d), nil
}

// String builds a string value.
func String(s string) Value { return storage.StrValue(s) }

// Date builds a date value from year, month, day.
func Date(y, m, d int) Value { return storage.DateValue(y, m, d) }

// ParseDate parses "YYYY-MM-DD".
func ParseDate(s string) (Value, error) { return storage.ParseDate(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return storage.BoolValue(b) }

// Column declares a table column.
type Column = storage.ColumnDef

// Column constructors.

// IntCol declares a 64-bit integer column.
func IntCol(name string) Column { return Column{Name: name, Type: coltypes.Int()} }

// DecimalCol declares a fixed-point decimal column with the given scale
// (digits after the point); stored DSB-encoded (paper §4.2).
func DecimalCol(name string, scale int) Column {
	return Column{Name: name, Type: coltypes.Decimal(int8(scale))}
}

// DateCol declares a date column (stored as day numbers).
func DateCol(name string) Column { return Column{Name: name, Type: coltypes.Date()} }

// StringCol declares a dictionary-encoded string column.
func StringCol(name string) Column { return Column{Name: name, Type: coltypes.String()} }

// BoolCol declares a boolean column.
func BoolCol(name string) Column { return Column{Name: name, Type: coltypes.Bool()} }

// Engine selects where a query executes.
type Engine int

const (
	// EngineAuto uses the cost-based offload decision (paper §3.1).
	EngineAuto Engine = iota
	// EngineHost forces the System X row engine.
	EngineHost
	// EngineRapidDPU forces RAPID on the simulated DPU (cycle-accounted).
	EngineRapidDPU
	// EngineRapidX86 forces RAPID's software-only native execution.
	EngineRapidX86
)

// Options tunes query execution.
type Options struct {
	Engine Engine
	// FailOnInadmissible errors instead of falling back when pending
	// changes have not been propagated to RAPID (paper §3.3).
	FailOnInadmissible bool
	// NoCache bypasses the query cache for this query: no lookup, no
	// publication, no singleflight participation.
	NoCache bool
}

// SchedulerConfig tunes the shared-SoC scheduler every offloaded query of a
// DB executes on. The zero value gives sensible defaults (32 virtual
// dpCores, 8 concurrent queries, 64 queued).
type SchedulerConfig struct {
	// Workers is the number of shared virtual dpCores.
	Workers int
	// MaxConcurrent bounds the queries executing at once.
	MaxConcurrent int
	// MaxQueued bounds the admission queue; beyond it queries fail fast
	// with ErrOverloaded.
	MaxQueued int
	// DMEMBudgetBytes bounds the aggregate scratchpad reservation of the
	// admitted query set.
	DMEMBudgetBytes int64
}

// CacheConfig tunes the two-tier query cache: a plan cache over
// literal-normalized SQL templates and an SCN-validated result cache with
// singleflight collapse, shared by the host engine and the tray. The zero
// value enables the cache with defaults.
type CacheConfig struct {
	// Disable turns the query cache off entirely.
	Disable bool
	// MaxResultBytes bounds the resident result-cache payload bytes
	// (LRU-evicted beyond it). Default 64 MiB.
	MaxResultBytes int64
	// MinCostNs is the admission floor: results whose execution took less
	// wall time than this are not worth the budget. Default 0 (admit all).
	MinCostNs int64
	// PlanEntries bounds the plan cache entry count. Default 256.
	PlanEntries int
}

// Config tunes a database instance.
type Config struct {
	Scheduler SchedulerConfig
	// Cache tunes the query cache, which is on by default.
	Cache CacheConfig
	// Nodes >= 1 attaches a multi-node RAPID tray (paper §7.4): offloaded
	// queries execute sharded across that many SoC nodes, with exchange
	// operators over a modeled interconnect and a coordinator merge. Load
	// builds the per-node shards alongside the single-node replica. 0 (the
	// default) disables the tray.
	Nodes int
	// ReplicateMaxRows tunes tray auto-sharding: tables at or below this
	// many rows replicate to every node, larger ones hash-shard on column
	// 0. 0 takes the default (64); negative shards everything.
	ReplicateMaxRows int
}

// DB is a RAPID-accelerated database: the System X host plus loaded RAPID
// replicas, and optionally a multi-node tray.
type DB struct {
	host *hostdb.Database
	tray *cluster.Tray
}

// Open creates an empty database.
func Open() *DB { return OpenWith(Config{}) }

// OpenWith creates an empty database with explicit configuration.
func OpenWith(cfg Config) *DB {
	sc := cfg.Scheduler
	scfg := sched.Config{
		Workers:         sc.Workers,
		MaxConcurrent:   sc.MaxConcurrent,
		MaxQueued:       sc.MaxQueued,
		DMEMBudgetBytes: sc.DMEMBudgetBytes,
	}
	db := &DB{host: hostdb.NewWithConfig(nil, scfg)}
	if !cfg.Cache.Disable {
		db.host.EnableQueryCache(qcache.Config{
			MaxResultBytes: cfg.Cache.MaxResultBytes,
			MinCostNs:      cfg.Cache.MinCostNs,
			PlanEntries:    cfg.Cache.PlanEntries,
		})
	}
	if cfg.Nodes >= 1 {
		// cluster.New only fails on Nodes < 1, checked above. The tray
		// shares the host's registry so /metrics exposes one fleet-wide
		// surface (host, scheduler, per-node rapid_* and net_* series).
		db.tray, _ = cluster.New(db.host, cluster.Config{
			Nodes:            cfg.Nodes,
			ReplicateMaxRows: cfg.ReplicateMaxRows,
			Sched:            scfg,
			Metrics:          db.host.Metrics(),
		})
	}
	return db
}

// Close stops the database's background machinery (checkpointer, the
// scheduler's worker pool, and the tray's per-node pools). Queries issued
// after Close fail.
func (db *DB) Close() {
	if db.tray != nil {
		db.tray.Close()
	}
	db.host.Close()
}

// Host exposes the underlying host database (advanced use).
func (db *DB) Host() *hostdb.Database { return db.host }

// Tray exposes the multi-node tray, nil unless Config.Nodes >= 1
// (advanced use: shard inspection, per-node schedulers, net telemetry).
func (db *DB) Tray() *cluster.Tray { return db.tray }

// Metrics returns the telemetry registry. Host, scheduler and (when a tray
// is attached) per-node engine series all land in this one registry.
func (db *DB) Metrics() *obs.Registry { return db.host.Metrics() }

// QueryJournal returns the query journal: a bounded ring of per-query
// completion records (fingerprint, mode, nodes, rows, cycles, energy,
// queue wait, outcome) with cumulative outcome counters. Tray queries journal
// here too.
func (db *DB) QueryJournal() *obs.Journal { return db.host.QueryJournal() }

// ActiveQueries returns a snapshot of the queries in flight right now —
// single-node and tray executions alike — sorted by QueryID.
func (db *DB) ActiveQueries() []ActiveQuery { return db.host.ActiveQueries() }

// CacheStats is a point-in-time snapshot of the query-cache counters.
type CacheStats = qcache.Snapshot

// CacheStats returns the query-cache counters (hits, misses, stale
// invalidations, singleflight shares, evictions, resident bytes, plan-tier
// hits). The zero snapshot when the cache is disabled.
func (db *DB) CacheStats() CacheStats {
	if c := db.host.QueryCache(); c != nil {
		return c.Stats()
	}
	return CacheStats{}
}

// CancelQuery cancels the in-flight query with the given ID (as shown by
// ActiveQueries or a Result's QueryID). It returns false when no such
// query is running. The canceled query returns context.Canceled and
// journals a "canceled" outcome.
func (db *DB) CancelQuery(id uint64) bool { return db.host.CancelQuery(id) }

// ServeTelemetry starts an HTTP exporter on addr ("127.0.0.1:0" picks a
// free port): Prometheus text on /metrics, the live active-query table and
// recent journal records on /debug/queries, and — when pprof is true — the
// Go runtime profiles on /debug/pprof/*. Close the returned server to stop
// it.
func (db *DB) ServeTelemetry(addr string, pprof bool) (*obs.TelemetryServer, error) {
	return db.host.ServeTelemetryWith(addr, pprof)
}

// CreateTable registers a table.
func (db *DB) CreateTable(name string, cols ...Column) error {
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return err
	}
	_, err = db.host.CreateTable(name, schema)
	return err
}

// Insert appends rows to a table. Changes are journaled for RAPID
// propagation when the table is loaded.
func (db *DB) Insert(table string, rows [][]Value) error {
	_, err := db.host.Insert(table, rows)
	return err
}

// Update changes a single cell by host row index.
func (db *DB) Update(table string, row, col int, val Value) error {
	_, err := db.host.Update(table, row, col, val)
	return err
}

// Delete removes a row by host row index.
func (db *DB) Delete(table string, row int) error {
	_, err := db.host.Delete(table, row)
	return err
}

// Load builds the RAPID columnar replica of a table (the LOAD command of
// paper §4.4) and, when a tray is attached, its per-node shard replicas.
// Queries can only offload fragments whose tables are loaded.
func (db *DB) Load(table string) error {
	if _, err := db.host.Load(table, hostdb.LoadOptions{ScanThreads: 4}); err != nil {
		return err
	}
	if db.tray != nil {
		return db.tray.Load(table, nil)
	}
	return nil
}

// Checkpoint propagates pending changes of a table to its RAPID replica.
func (db *DB) Checkpoint(table string) error { return db.host.Checkpoint(table) }

// StartBackgroundCheckpointer launches periodic change propagation
// (paper §3.3); stop it with StopBackgroundCheckpointer.
func (db *DB) StartBackgroundCheckpointer(interval time.Duration) {
	db.host.StartBackgroundCheckpointer(interval)
}

// StopBackgroundCheckpointer stops background propagation.
func (db *DB) StopBackgroundCheckpointer() { db.host.StopBackgroundCheckpointer() }

// Query runs a SQL query with the default (cost-based) engine choice.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryWith(sql, Options{})
}

// QueryCtx runs a SQL query observing ctx: cancellation and deadlines take
// effect while the query waits for admission and at every tile boundary of
// execution, returning ctx.Err() promptly.
func (db *DB) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	return db.QueryWithCtx(ctx, sql, Options{})
}

// QueryWith runs a SQL query with explicit options.
func (db *DB) QueryWith(sql string, opts Options) (*Result, error) {
	return db.QueryWithCtx(context.Background(), sql, opts)
}

// rapidMode maps the engine choice onto the RAPID execution mode: the DPU
// simulation when asked for by name, native software execution otherwise.
func rapidMode(e Engine) qef.Mode {
	if e == EngineRapidDPU {
		return qef.ModeDPU
	}
	return qef.ModeX86
}

// queryTray routes an offloadable query to the tray and adapts the
// distributed result. EngineAuto falls back to the host row engine when
// distribution itself fails (e.g. a referenced table was never loaded).
func (db *DB) queryTray(ctx context.Context, sql string, opts Options) (*Result, error) {
	start := time.Now()
	res, err := db.tray.QueryCtx(ctx, sql, cluster.QueryOptions{Mode: rapidMode(opts.Engine), NoCache: opts.NoCache})
	if err != nil {
		if opts.Engine == EngineAuto && !hostdb.NoFallback(err) {
			r, herr := db.host.QueryCtx(ctx, sql, hostdb.QueryOptions{Mode: hostdb.ForceHost})
			if herr != nil {
				return nil, herr
			}
			r.FellBack = true
			return &Result{r: r}, nil
		}
		return nil, err
	}
	explain := res.Explain
	if res.Analyze != "" {
		explain = res.Analyze
	}
	return &Result{r: &hostdb.QueryResult{
		Rel:             res.Rel,
		QueryID:         res.QueryID,
		Offloaded:       true,
		RapidWall:       time.Since(start),
		RapidSimSeconds: res.SimSeconds,
		Explain:         explain,
		QueueWait:       res.QueueWait,
		Cache:           res.Cache,
		CyclesSaved:     res.CyclesSaved,
		EnergySavedNJ:   res.EnergySavedNJ,
	}}, nil
}

// QueryWithCtx runs a SQL query with explicit options, observing ctx.
func (db *DB) QueryWithCtx(ctx context.Context, sql string, opts Options) (*Result, error) {
	if db.tray != nil && opts.Engine != EngineHost {
		return db.queryTray(ctx, sql, opts)
	}
	qo := hostdb.QueryOptions{
		FailOnInadmissible: opts.FailOnInadmissible,
		NoCache:            opts.NoCache,
		RapidMode:          rapidMode(opts.Engine),
	}
	switch opts.Engine {
	case EngineHost:
		qo.Mode = hostdb.ForceHost
	case EngineRapidDPU, EngineRapidX86:
		qo.Mode = hostdb.ForceOffload
	}
	r, err := db.host.QueryCtx(ctx, sql, qo)
	if err != nil {
		return nil, err
	}
	return &Result{r: r}, nil
}

// Result is a query result.
type Result struct {
	r *hostdb.QueryResult
}

// Rows returns the result row count.
func (r *Result) Rows() int { return r.r.Rel.Rows() }

// NumCols returns the column count.
func (r *Result) NumCols() int { return r.r.Rel.NumCols() }

// ColumnNames returns the output column names.
func (r *Result) ColumnNames() []string {
	names := make([]string, r.NumCols())
	for i := range names {
		names[i] = r.r.Rel.Cols[i].Name
	}
	return names
}

// Get renders cell (row, col) as a string.
func (r *Result) Get(row, col int) string { return r.r.Rel.Render(row, col) }

// GetInt returns the raw encoded integer of cell (row, col).
func (r *Result) GetInt(row, col int) int64 { return r.r.Rel.Get(row, col) }

// Offloaded reports whether the query ran on RAPID.
func (r *Result) Offloaded() bool { return r.r.Offloaded }

// FellBack reports whether RAPID execution was attempted but fell back to
// the host engine.
func (r *Result) FellBack() bool { return r.r.FellBack }

// RapidFraction returns the share of elapsed time spent inside RAPID
// (the Fig 15 metric).
func (r *Result) RapidFraction() float64 { return r.r.RapidFraction() }

// SimulatedSeconds returns the DPU-simulated execution time (EngineRapidDPU
// only; 0 otherwise).
func (r *Result) SimulatedSeconds() float64 { return r.r.RapidSimSeconds }

// QueueWait returns the time the query spent in the shared-SoC scheduler's
// admission queue (zero for host-engine queries and immediate admissions).
func (r *Result) QueueWait() time.Duration { return r.r.QueueWait }

// QueryID returns the fleet-wide identifier the query was journaled under
// (usable with CancelQuery while running, and to find its journal record).
func (r *Result) QueryID() uint64 { return r.r.QueryID }

// CacheStatus reports the query's result-cache interaction: "hit", "miss",
// "stale" (an entry existed but was invalidated by intervening DML or
// checkpointing), "bypass" (Options.NoCache or an uncacheable statement),
// or "" when the cache is disabled.
func (r *Result) CacheStatus() string { return r.r.Cache }

// CyclesSaved returns the dpCore cycles a cache hit avoided re-spending
// (the producing execution's cost; 0 on anything but a hit).
func (r *Result) CyclesSaved() int64 { return r.r.CyclesSaved }

// EnergySavedNJ returns the nanojoules a cache hit avoided re-spending
// (0 on anything but a hit).
func (r *Result) EnergySavedNJ() int64 { return r.r.EnergySavedNJ }

// Explain returns the EXPLAIN ANALYZE report when the statement asked for
// one — a tray's distributed report, the per-operator profile of a RAPID
// run on one SoC, or the note saying why there is none — and the bound
// logical plan otherwise.
func (r *Result) Explain() string {
	if r.r.Profile != nil {
		return r.r.Profile.Format()
	}
	if r.r.ProfileNote != "" {
		return r.r.ProfileNote
	}
	return r.r.Explain
}

// Table renders the whole result as an aligned text table.
func (r *Result) Table() string {
	var sb strings.Builder
	names := r.ColumnNames()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, r.Rows())
	for i := 0; i < r.Rows(); i++ {
		cells[i] = make([]string, len(names))
		for c := range names {
			cells[i][c] = r.Get(i, c)
			if len(cells[i][c]) > widths[c] {
				widths[c] = len(cells[i][c])
			}
		}
	}
	writeRow := func(vals []string) {
		for c, v := range vals {
			if c > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[c], v)
		}
		sb.WriteByte('\n')
	}
	writeRow(names)
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}
