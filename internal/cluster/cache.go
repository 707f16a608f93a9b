package cluster

import (
	"fmt"

	"rapid/internal/hostdb"
	"rapid/internal/qcache"
)

// Tray-side query-cache glue. The lookup / singleflight / publish logic is
// hostdb.RunQuery's (DESIGN.md "Query lifecycle"), and the tray shares the
// host database's cache instance — one byte budget and one singleflight
// table across the fleet — but keys its entries under a distinct mode prefix
// and the tray's node count, so a distributed result can never answer a
// single-SoC lookup (or vice versa).

// CacheMode discriminates tray cache entries from host entries and from
// each other: per-node execution mode plus the pruning switch (pruning is
// results-neutral by design, but the metamorphic lanes compare the two
// populations independently, so they get separate keys).
func (engine) CacheMode(opts QueryOptions) string {
	if opts.NoCache {
		return ""
	}
	m := "tray-" + opts.Mode.String()
	if opts.DisablePruning {
		m += "+noprune"
	}
	return m
}

// PlanScope is the plan-cache scope for coordinator binds: plans are bound
// against node shards, so trays of different widths cannot share skeletons.
func (e engine) PlanScope() string { return fmt.Sprintf("tray%d", e.Nodes()) }

// Version returns a table's version-vector entry as the tray sees it:
// the host-level mutation SCN alone. Shard replicas reload exactly when the
// host MutationSCN passes their load SCN (shardsLocked), so an unchanged MutSCN
// means unchanged shard contents; host-replica checkpoint epochs never
// affect tray answers and are deliberately excluded.
func (e engine) Version(name string) (qcache.Version, bool) {
	ht, err := e.t.host.Table(name)
	if err != nil {
		return qcache.Version{}, false
	}
	return qcache.Version{Name: name, MutSCN: ht.MutationSCN()}, true
}

// FromCache builds the Result for a tray result-cache hit or a shared
// singleflight execution from the template CacheEntry stored: the shared
// relation with zero marginal cycles, network traffic, energy and admission,
// and the saved cost carried from the producing execution.
func (engine) FromCache(r *qcache.Result, opts QueryOptions) *Result {
	res := *r.Payload.(*Result)
	if opts.Analyze {
		res.Analyze = fmt.Sprintf(
			"Distributed Plan (nodes=%d, cached)\ncache: hit — served from result cache; saved ~%d cycles, ~%d nJ, ~%.3fms execution\n",
			res.Nodes, r.CyclesSaved, r.EnergySavedNJ, float64(r.WallNs)/1e6)
	}
	return &res
}

// CacheEntry wraps a finished distributed execution as a result-cache entry
// whose payload is the result every later hit starts from. The relation is
// shared, never mutated — the same read-only-once-returned invariant Query
// callers already rely on.
func (engine) CacheEntry(res *Result) *qcache.Result {
	return hostdb.NewCacheEntry(&Result{
		Rel: res.Rel, Nodes: res.Nodes, Explain: res.Explain,
		Cache: "hit", CyclesSaved: res.TotalCycles, EnergySavedNJ: res.EnergyNJ,
	}, res.Rel, res.TotalCycles, res.EnergyNJ)
}

// SetCacheStatus records the cache interaction and appends it to the
// distributed EXPLAIN ANALYZE report (only when a report was produced, so
// cacheless trays render byte-identically to before the cache existed).
func (engine) SetCacheStatus(res *Result, opts QueryOptions, status string) {
	res.Cache = status
	if opts.Analyze && res.Analyze != "" {
		res.Analyze += fmt.Sprintf("cache: %s\n", status)
	}
}
