// Package qcache is the query result cache of DESIGN.md §10: whole query
// results keyed by (literal-normalized template, parameter vector,
// execution mode, node count) and validated against per-table version
// vectors (host mutation SCN + storage data epoch). Entries never expire by
// time — they are invalidated by version mismatch and evicted by an LRU
// byte budget, and oversized results are not admitted. A singleflight layer
// collapses concurrent identical misses so a thundering herd of one
// dashboard query executes once per epoch. The cache itself is engine-agnostic: callers capture
// version vectors before execution and re-validate before publishing, so a
// mutation interleaved with an execution can never produce a stale-keyed
// entry (see storage.Table.DataEpoch for the ordering contract).
package qcache

import (
	"container/list"
	"context"
	"sync"

	"rapid/internal/obs"
)

// Version is one table's position in the version vector: the host-level
// mutation SCN and the storage-level data epoch. Both must match exactly
// for an entry to be served — the SCN tracks host DML, the epoch tracks
// replica-side publications (checkpoint apply, compaction) that change
// what an offloaded scan sees without a new host SCN.
type Version struct {
	Name   string
	MutSCN uint64
	Epoch  uint64
}

// Key identifies one result-cache entry.
type Key struct {
	Template uint64 // normalized template fingerprint
	Params   uint64 // parameter vector fingerprint
	Mode     string // execution mode discriminator (engine + prune flags)
	Nodes    int    // tray width (1 = single host)
}

// Status classifies one result-cache interaction.
type Status int

const (
	Miss Status = iota
	Hit
	Stale  // entry found but version vector moved; evicted
	Shared // produced by another in-flight execution (singleflight)
)

func (s Status) String() string {
	return [...]string{"miss", "hit", "stale", "shared"}[s]
}

// Result is one cached query result plus the bookkeeping the cache and its
// callers need: the opaque engine payload, its estimated footprint, the
// version vector it was computed against, and the billed cost of the
// execution that produced it (for CyclesSaved/EnergySavedNJ accounting on
// hits).
type Result struct {
	Payload       any
	Bytes         int64
	Versions      []Version
	CyclesSaved   int64
	EnergySavedNJ int64
	WallNs        int64 // wall time of the producing execution

	key  Key
	elem *list.Element
}

// Config sizes the cache. Zero values select the defaults.
type Config struct {
	MaxResultBytes int64 // byte budget (default 64 MiB); one entry may take an eighth of it
	Metrics        *obs.Registry
}

const defaultMaxResultBytes = 64 << 20

// Cache is the shared query result cache. One instance serves a whole host
// database and every tray built on top of it.
type Cache struct {
	maxBytes int64
	maxEntry int64

	mu      sync.Mutex
	bytes   int64
	results map[Key]*list.Element
	lru     *list.List // of *Result, front = most recent
	flights map[Key]*Flight

	hits, misses, stales, shared   *obs.Counter
	evictions, bypasses, rejects   *obs.Counter
	bytesTotal                     *obs.Counter
	residentBytes, residentEntries *obs.Gauge
}

// New builds a cache; reg may be nil (metrics become local-only).
func New(cfg Config) *Cache {
	if cfg.MaxResultBytes <= 0 {
		cfg.MaxResultBytes = defaultMaxResultBytes
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		maxBytes: cfg.MaxResultBytes,
		maxEntry: cfg.MaxResultBytes / 8,
		results:  make(map[Key]*list.Element),
		lru:      list.New(),
		flights:  make(map[Key]*Flight),

		hits:            reg.Counter("rapid_cache_hits_total"),
		misses:          reg.Counter("rapid_cache_misses_total"),
		stales:          reg.Counter("rapid_cache_stale_total"),
		shared:          reg.Counter("rapid_cache_singleflight_shared_total"),
		evictions:       reg.Counter("rapid_cache_evictions_total"),
		bypasses:        reg.Counter("rapid_cache_bypass_total"),
		rejects:         reg.Counter("rapid_cache_admission_rejects_total"),
		bytesTotal:      reg.Counter("rapid_cache_bytes_total"),
		residentBytes:   reg.Gauge("rapid_cache_resident_bytes"),
		residentEntries: reg.Gauge("rapid_cache_resident_entries"),
	}
}

// Describe registers help strings for the cache metrics on reg.
func Describe(reg *obs.Registry) {
	reg.Describe("rapid_cache_hits_total", "result-cache hits served without execution")
	reg.Describe("rapid_cache_misses_total", "result-cache misses (no entry for the key)")
	reg.Describe("rapid_cache_stale_total", "result-cache entries found but invalidated by a version-vector mismatch")
	reg.Describe("rapid_cache_singleflight_shared_total", "queries served by joining another client's in-flight execution")
	reg.Describe("rapid_cache_evictions_total", "result-cache entries evicted by the LRU byte budget")
	reg.Describe("rapid_cache_bypass_total", "queries that skipped the cache (NoCache, non-cacheable shape, or fallback result)")
	reg.Describe("rapid_cache_admission_rejects_total", "results denied admission (larger than an eighth of the byte budget)")
	reg.Describe("rapid_cache_bytes_total", "cumulative bytes admitted into the result cache")
	reg.Describe("rapid_cache_resident_bytes", "bytes currently resident in the result cache")
	reg.Describe("rapid_cache_resident_entries", "entries currently resident in the result cache")
}

// Validate reports whether every version in the vector still matches what
// current returns. current returning ok=false (table dropped) fails it.
func Validate(versions []Version, current func(name string) (Version, bool)) bool {
	for _, v := range versions {
		cur, ok := current(v.Name)
		if !ok || cur.MutSCN != v.MutSCN || cur.Epoch != v.Epoch {
			return false
		}
	}
	return true
}

// GetResult looks up k, validating the stored version vector against
// current. Stale entries are removed and counted as stale.
func (c *Cache) GetResult(k Key, current func(name string) (Version, bool)) (*Result, Status) {
	c.mu.Lock()
	elem, ok := c.results[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return nil, Miss
	}
	r := elem.Value.(*Result)
	c.mu.Unlock()
	// Validation runs outside c.mu: current() reads engine-side state and
	// must not nest under the cache lock. The entry may be concurrently
	// evicted — removeIfPresent below tolerates that.
	if !Validate(r.Versions, current) {
		c.removeIfPresent(r)
		c.stales.Inc()
		return nil, Stale
	}
	c.mu.Lock()
	if r.elem != nil {
		c.lru.MoveToFront(r.elem)
	}
	c.mu.Unlock()
	c.hits.Inc()
	return r, Hit
}

// PutResult admits r under k, evicting LRU entries to fit the byte budget.
// Returns false when r is too large to admit.
func (c *Cache) PutResult(k Key, r *Result) bool {
	if r.Bytes > c.maxEntry {
		c.rejects.Inc()
		return false
	}
	c.mu.Lock()
	if old, ok := c.results[k]; ok {
		c.removeLocked(old.Value.(*Result))
	}
	for c.bytes+r.Bytes > c.maxBytes && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back().Value.(*Result))
		c.evictions.Inc()
	}
	r.key = k
	r.elem = c.lru.PushFront(r)
	c.results[k] = r.elem
	c.bytes += r.Bytes
	c.residentBytes.Set(c.bytes)
	c.residentEntries.Set(int64(c.lru.Len()))
	c.mu.Unlock()
	c.bytesTotal.Add(r.Bytes)
	return true
}

// removeLocked unlinks r (c.mu held).
func (c *Cache) removeLocked(r *Result) {
	if r.elem == nil {
		return
	}
	c.lru.Remove(r.elem)
	delete(c.results, r.key)
	c.bytes -= r.Bytes
	r.elem = nil
	c.residentBytes.Set(c.bytes)
	c.residentEntries.Set(int64(c.lru.Len()))
}

func (c *Cache) removeIfPresent(r *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(r)
}

// NoteBypass records a query that consulted the cache but was ineligible.
func (c *Cache) NoteBypass() { c.bypasses.Inc() }

// Flight is one in-progress execution of a missed key; followers of the
// same key wait on it instead of re-executing.
type Flight struct {
	c    *Cache
	k    Key
	done chan struct{}
	res  *Result
}

// Begin joins or opens the flight for k. The second return is true for the
// leader, who MUST call Finish exactly once (nil on failure) or followers
// block until their contexts cancel. A nil flight means neither: a result
// for k was published since the caller's lookup missed (its leader put it
// and finished in between), so the caller should look again, not execute.
func (c *Cache) Begin(k Key) (*Flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[k]; ok {
		return f, false
	}
	if _, ok := c.results[k]; ok {
		return nil, false
	}
	f := &Flight{c: c, k: k, done: make(chan struct{})}
	c.flights[k] = f
	return f, true
}

// Finish publishes the leader's result (nil when the execution failed or
// the result was not publishable) and releases the key for new flights.
func (f *Flight) Finish(r *Result) {
	f.c.mu.Lock()
	if f.c.flights[f.k] == f {
		delete(f.c.flights, f.k)
	}
	f.c.mu.Unlock()
	f.res = r
	close(f.done)
}

// Wait blocks until the leader finishes or ctx is done. ok=false means the
// follower must execute on its own (leader failed, or ctx canceled —
// distinguished by ctx.Err()).
func (f *Flight) Wait(ctx context.Context) (*Result, bool) {
	select {
	case <-f.done:
		if f.res == nil {
			return nil, false
		}
		f.c.shared.Inc()
		return f.res, true
	case <-ctx.Done():
		return nil, false
	}
}

// Snapshot is a point-in-time view of the cache counters for tests and the
// bench report (works without an external registry).
type Snapshot struct {
	Hits, Misses, Stale, Shared    int64
	Evictions, Bypasses, Rejects   int64
	ResidentBytes, ResidentEntries int64
	// PlanHits is always 0: there is no plan tier. It stays only because
	// the benchmark harness still reads it.
	PlanHits int64
}

// Stats returns the current counter snapshot.
func (c *Cache) Stats() Snapshot {
	return Snapshot{
		Hits:            c.hits.Value(),
		Misses:          c.misses.Value(),
		Stale:           c.stales.Value(),
		Shared:          c.shared.Value(),
		Evictions:       c.evictions.Value(),
		Bypasses:        c.bypasses.Value(),
		Rejects:         c.rejects.Value(),
		ResidentBytes:   c.residentBytes.Value(),
		ResidentEntries: c.residentEntries.Value(),
	}
}
