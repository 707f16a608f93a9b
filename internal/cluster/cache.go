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
// populations independently, so they get separate keys). A traced query
// bypasses the cache like a NoCache one: its trace records one execution,
// and a hit executes nothing.
func (engine) CacheMode(opts QueryOptions) string {
	if opts.NoCache || opts.Trace {
		return ""
	}
	m := "tray-" + opts.Mode.String()
	if opts.DisablePruning {
		m += "+noprune"
	}
	return m
}

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

// CacheNote appends the cache line to the distributed EXPLAIN ANALYZE
// report. A hit ran nothing, so its report is the line under a header.
func (e engine) CacheNote(res *Result, opts QueryOptions, hit *qcache.Result) {
	if !opts.Analyze {
		return
	}
	if hit != nil {
		res.Analyze = fmt.Sprintf("Distributed Plan (nodes=%d, cached)\n", e.Nodes())
	}
	res.Analyze += hostdb.CacheLine(res.Cache, hit) + "\n"
}
