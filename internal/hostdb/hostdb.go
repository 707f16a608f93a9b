// Package hostdb implements "System X": the operational host RDBMS that
// RAPID plugs into (paper §3). It is the single source of truth: a row
// store with SCN-stamped transactions and in-memory journals. Analytical
// queries are offloaded to RAPID cost-based; changes propagate to the
// loaded RAPID replicas through background query checkpointing; and when a
// query is not admissible (or RAPID fails) execution falls back to the
// host's own Volcano-style row engine — which doubles as the paper's
// baseline system in the Fig 14/16 experiments.
package hostdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"rapid/internal/encoding"
	"rapid/internal/obs"
	"rapid/internal/qcache"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

// Database is the host RDBMS instance.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*HostTable
	scn    uint64

	metrics *obs.Registry

	// qjournal is the fleet query journal (bounded completion ring) and
	// active the live in-flight query set / QueryID authority. An attached
	// cluster tray shares both, so the fleet has one ID space and one
	// journal. ("Journal" elsewhere in this package means a table's change
	// journal for RAPID propagation — an unrelated mechanism.)
	qjournal *obs.Journal
	active   *obs.ActiveSet

	// sched is the shared-SoC scheduler every offloaded query of this
	// database executes on: one pool of virtual dpCores, admission control
	// and work-unit-granular multiplexing across concurrent queries.
	sched *sched.Scheduler

	// qcache is the two-tier query cache (DESIGN.md §10), nil until
	// EnableQueryCache. An attached cluster tray shares it, so host and
	// distributed executions of the same template hit one store.
	qcache *qcache.Cache

	stopCheckpointer chan struct{}

	// rapidFault, when non-nil, fails every RAPID execution with it — a
	// simulated node failure. Only in-package tests set it (before issuing
	// queries), to exercise the §3.2 fallback path.
	rapidFault error
}

// EnableQueryCache installs a two-tier query cache (plan + result) on the
// database and returns it. Cache metrics land in the database registry
// unless the config carries its own. Idempotent per database: a second
// call replaces the cache (dropping all entries).
func (db *Database) EnableQueryCache(cfg qcache.Config) *qcache.Cache {
	if cfg.Metrics == nil {
		cfg.Metrics = db.metrics
	}
	qcache.Describe(cfg.Metrics)
	c := qcache.New(cfg)
	db.mu.Lock()
	db.qcache = c
	db.mu.Unlock()
	return c
}

// QueryCache returns the installed query cache, or nil when caching is off.
func (db *Database) QueryCache() *qcache.Cache {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.qcache
}

// New creates an empty database with its own metrics registry and a
// default-configured scheduler.
func New() *Database {
	return NewWithConfig(nil, sched.Config{})
}

// NewWithConfig creates an empty database sharing the given metrics registry
// (nil allocates a fresh one) with an explicit shared-SoC scheduler
// configuration. The scheduler's metrics land in the database's registry
// unless the config carries its own.
func NewWithConfig(reg *obs.Registry, cfg sched.Config) *Database {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = reg
	}
	return &Database{
		tables:   make(map[string]*HostTable),
		metrics:  reg,
		qjournal: obs.NewJournal(0),
		active:   obs.NewActiveSet(),
		sched:    sched.New(cfg),
	}
}

// Metrics returns the database's metrics registry.
func (db *Database) Metrics() *obs.Registry { return db.metrics }

// QueryJournal returns the database's query journal: the bounded ring of
// per-query completion records with cumulative outcome counters and JSONL
// export.
func (db *Database) QueryJournal() *obs.Journal { return db.qjournal }

// ActiveQueries returns a snapshot of the in-flight queries, sorted by
// QueryID.
func (db *Database) ActiveQueries() []obs.ActiveQuery { return db.active.Snapshot() }

// CancelQuery cancels the in-flight query with the given ID. It returns
// false when no such query is running. The canceled query returns
// context.Canceled to its caller and journals a "canceled" outcome.
func (db *Database) CancelQuery(id uint64) bool { return db.active.Cancel(id) }

// Scheduler returns the database's shared-SoC scheduler (never nil), for
// configuration inspection and tests that need to occupy admission slots.
func (db *Database) Scheduler() *sched.Scheduler { return db.sched }

// Close stops the database's background machinery: the checkpointer and the
// shared scheduler's worker pool. In-flight queries fail with sched.ErrClosed.
func (db *Database) Close() {
	db.StopBackgroundCheckpointer()
	db.sched.Close()
}

// ServeTelemetryWith starts an opt-in HTTP exporter for this database's
// observability surface on addr: Prometheus text on /metrics, the live
// active-query table plus recent journal records on /debug/queries,
// liveness on /healthz and, with enablePprof, the Go runtime profiles on
// /debug/pprof/*. Close the returned server to stop it.
func (db *Database) ServeTelemetryWith(addr string, enablePprof bool) (*obs.TelemetryServer, error) {
	return obs.ServeTelemetryWith(addr, obs.TelemetryConfig{
		Registry:    db.metrics,
		Active:      db.active,
		Journal:     db.qjournal,
		EnablePprof: enablePprof,
	})
}

// checkpointLagGauge tracks journal entries not yet propagated to RAPID.
// Updated incrementally at every journal mutation: the obvious recompute
// via PendingJournal would need the table lock the mutators already hold.
func (db *Database) checkpointLagGauge() *obs.Gauge {
	return db.metrics.Gauge("hostdb_checkpoint_lag_entries")
}

// HostTable is one row-store table plus its RAPID replica state.
type HostTable struct {
	name   string
	schema *storage.Schema
	// meta is the per-column codec (storage.Codec): rows, journal entries,
	// replicas and tray shards all hold the integers it produces.
	meta []storage.ColumnMeta

	mu      sync.RWMutex
	rows    [][]int64
	journal []journalEntry // changes not yet propagated to RAPID
	mutSCN  uint64         // SCN of the last row mutation (0 if never mutated)

	rapid *storage.Table // loaded replica; nil until LOAD

	// The indices of the tombstones Load skipped (ascending): all rowOrd
	// needs to map a host row index to a replica row ordinal.
	loadTombs []int
}

// ErrNoSuchRow and ErrNoSuchColumn are the causes of the errors Update and
// Delete return for a row index that is out of range or already deleted, and
// for a column index outside the schema.
var (
	ErrNoSuchRow    = errors.New("no such row")
	ErrNoSuchColumn = errors.New("no such column")
)

// liveRow checks that row addresses a live host row (t.mu held).
func (t *HostTable) liveRow(row int) error {
	if row < 0 || row >= len(t.rows) || t.rows[row] == nil {
		return fmt.Errorf("hostdb: table %s row %d: %w", t.name, row, ErrNoSuchRow)
	}
	return nil
}

// journalEntry is one pending change for RAPID propagation. Exactly one of
// the fields is active. insert is the journal's own copy of the row, which
// Checkpoint hands on to the replica's unit log.
type journalEntry struct {
	scn    uint64
	insert []int64
	delRow int // -1 when unused
	updRow int // -1 when unused
	updCol int
	updVal int64
}

// NextSCN advances and returns the system change number.
func (db *Database) NextSCN() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.scn++
	return db.scn
}

// CurrentSCN returns the latest SCN.
func (db *Database) CurrentSCN() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.scn
}

// CreateTable registers a new table.
func (db *Database) CreateTable(name string, schema *storage.Schema) (*HostTable, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("hostdb: table %q exists", name)
	}
	t := &HostTable{name: name, schema: schema, meta: storage.Codec(schema, nil)}
	db.tables[name] = t
	return t, nil
}

// Table returns a table by name.
func (db *Database) Table(name string) (*HostTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("hostdb: no table %q", name)
}

// Schema returns the table schema.
func (t *HostTable) Schema() *storage.Schema { return t.schema }

// Rows returns the current row count.
func (t *HostTable) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Rapid returns the loaded RAPID replica, or nil.
func (t *HostTable) Rapid() *storage.Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rapid
}

// Dicts returns the table's per-column dictionaries (nil for non-string
// columns). The tray loader shares them into every node shard so encoded
// values compare across nodes.
func (t *HostTable) Dicts() []*encoding.Dict {
	dicts := make([]*encoding.Dict, len(t.meta))
	for c, m := range t.meta {
		dicts[c] = m.Dict
	}
	return dicts
}

// MutationSCN returns the SCN of the table's last row mutation (0 if the
// table was never mutated). Shard replicas loaded at an older SCN are stale.
func (t *HostTable) MutationSCN() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mutSCN
}

// liveRows returns the live rows in row order and the indices of the
// tombstones between them (t.mu held). The rows are the row store's own.
func (t *HostTable) liveRows() (live [][]int64, tombs []int) {
	live = make([][]int64, 0, len(t.rows))
	for i, row := range t.rows {
		if row == nil {
			tombs = append(tombs, i)
		} else {
			live = append(live, row)
		}
	}
	return live, tombs
}

// ScanLive calls fn once with the table's live encoded rows (tombstones
// skipped, row order) under the table's read lock — the scan feeding a tray
// shard load. The rows are the row store's own and Update writes them in
// place: fn only reads them and keeps none past its return.
func (t *HostTable) ScanLive(fn func(rows [][]int64) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	live, _ := t.liveRows()
	return fn(live)
}

// Insert appends rows transactionally: the host row store is updated and a
// journal entry records the change for RAPID propagation.
func (db *Database) Insert(table string, rows [][]storage.Value) (uint64, error) {
	t, err := db.Table(table)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// SCNs are drawn under the table lock, so a table's journal is in SCN
	// order however writers interleave.
	scn := db.NextSCN()
	t.mutSCN = scn
	journaled := 0
	defer func() { db.checkpointLagGauge().Add(int64(journaled)) }()
	for _, vals := range rows {
		enc := make([]int64, len(t.meta))
		if err := storage.EncodeRow(t.meta, vals, enc); err != nil {
			return 0, err
		}
		t.rows = append(t.rows, enc)
		if t.rapid != nil {
			// The journal owns a copy made now: Update writes the live row in
			// place, and the unit stamped with this SCN must not carry values
			// written at later ones.
			t.journal = append(t.journal, journalEntry{scn: scn, insert: slices.Clone(enc), delRow: -1, updRow: -1})
			journaled++
		}
	}
	return scn, nil
}

// Update changes one cell of a live row (by host row index). A row that is
// out of range or deleted, a column outside the schema and a value of the
// wrong kind are errors that change nothing.
func (db *Database) Update(table string, row, col int, val storage.Value) (uint64, error) {
	t, err := db.Table(table)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.liveRow(row); err != nil {
		return 0, err
	}
	if col < 0 || col >= t.schema.NumCols() {
		return 0, fmt.Errorf("hostdb: table %s row %d column %d: %w", t.name, row, col, ErrNoSuchColumn)
	}
	enc, err := t.meta[col].Encode(val)
	if err != nil {
		return 0, err
	}
	scn := db.NextSCN()
	t.mutSCN = scn
	t.rows[row][col] = enc
	if t.rapid != nil {
		t.journal = append(t.journal, journalEntry{scn: scn, delRow: -1, updRow: row, updCol: col, updVal: enc})
		db.checkpointLagGauge().Add(1)
	}
	return scn, nil
}

// Delete removes a live row by host row index; deleting a row twice is an
// error. The row store keeps a tombstone so host row indices stay stable, and
// the journal records the delete for RAPID.
func (db *Database) Delete(table string, row int) (uint64, error) {
	t, err := db.Table(table)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.liveRow(row); err != nil {
		return 0, err
	}
	scn := db.NextSCN()
	t.mutSCN = scn
	if t.rapid != nil {
		t.journal = append(t.journal, journalEntry{scn: scn, delRow: row, updRow: -1})
		db.checkpointLagGauge().Add(1)
	}
	t.rows[row] = nil
	return scn, nil
}

// LoadOptions tunes the LOAD command.
type LoadOptions struct {
	ChunkRows int
	TryRLE    bool
	// ScanThreads is the degree of parallelism of the load scan (§4.4).
	ScanThreads int
}

// Load executes the "LOAD" command (§4.4): scan threads cooperatively move
// the live host rows, encoded as they are, into the column buffers of a
// RAPID base table. After Load the table's journal is empty and the replica
// is current.
func (db *Database) Load(table string, opts LoadOptions) (*storage.Table, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	if opts.ScanThreads <= 0 {
		opts.ScanThreads = 4
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// The replica shares the host dictionaries (as tray shards do): a bound
	// plan carries the replica's dictionaries and literal codes, and the row
	// engine runs that same plan over host rows when a query falls back.
	b := storage.NewTableBuilder(t.name, t.schema, storage.BuildOptions{
		ChunkRows:   opts.ChunkRows,
		TryRLE:      opts.TryRLE,
		SharedDicts: t.Dicts(),
	})
	live, tombs := t.liveRows()
	if err := b.AppendEncoded(live, opts.ScanThreads); err != nil {
		return nil, err
	}
	rapid, err := b.Build()
	if err != nil {
		return nil, err
	}
	t.rapid, t.loadTombs = rapid, tombs
	db.checkpointLagGauge().Add(-int64(len(t.journal)))
	t.journal = nil
	return rapid, nil
}

// PendingJournal returns the number of unpropagated journal entries.
func (t *HostTable) PendingJournal() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.journal)
}

// Checkpoint propagates all pending journal entries to the RAPID replica as
// SCN-stamped update units, one per SCN — the query checkpointing of §3.3.
// When a unit fails, the entries of the units before it, which the replica
// already holds, leave the journal; the failed unit and those after it stay,
// and the next checkpoint resumes with them.
func (db *Database) Checkpoint(table string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rapid == nil || len(t.journal) == 0 {
		return nil
	}
	// One UU per SCN preserves versioning.
	start := 0
	for start < len(t.journal) {
		scn := t.journal[start].scn
		end := start
		uu := storage.UpdateUnit{SCN: scn}
		for end < len(t.journal) && t.journal[end].scn == scn {
			e := t.journal[end]
			switch {
			case e.insert != nil:
				uu.Inserts = append(uu.Inserts, e.insert)
			case e.delRow >= 0:
				uu.Deletes = append(uu.Deletes, t.rowOrd(e.delRow))
			case e.updRow >= 0:
				uu.Patches = append(uu.Patches, storage.CellPatch{Row: t.rowOrd(e.updRow), Col: e.updCol, Val: e.updVal})
			}
			end++
		}
		if err := t.rapid.Tracker().Apply(uu); err != nil {
			db.checkpointLagGauge().Add(-int64(start))
			t.journal = t.journal[start:]
			return fmt.Errorf("hostdb: checkpoint %s: %w", table, err)
		}
		start = end
	}
	db.checkpointLagGauge().Add(-int64(len(t.journal)))
	db.metrics.Counter("hostdb_checkpoints_total").Inc()
	t.journal = nil
	return nil
}

// rowOrd maps a host row index to its replica row ordinal (t.mu held): the
// index less the tombstones Load skipped below it. Load built the live rows
// in host order, and every tombstone it skipped lies below the rows appended
// since, which the replica holds after its base rows in the same order. An
// ordinal the replica does not hold fails the checkpoint in Apply.
func (t *HostTable) rowOrd(hostRow int) int {
	return hostRow - sort.SearchInts(t.loadTombs, hostRow)
}

// CheckpointAll checkpoints every loaded table, in name order. A table that
// fails does not stop the others; the failures come back joined.
func (db *Database) CheckpointAll() error {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	slices.Sort(names)
	var errs []error
	for _, n := range names {
		errs = append(errs, db.Checkpoint(n))
	}
	return errors.Join(errs...)
}
