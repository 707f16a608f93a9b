package hostdb

import (
	"fmt"

	"rapid/internal/qcache"
)

// Query-cache glue of the single-SoC engine. The cache itself lives in
// internal/qcache and the lookup / singleflight / publish logic in RunQuery
// (DESIGN.md "Query lifecycle"); this file supplies the host-side keying,
// version vectors, payloads and hit accounting.

// CacheMode discriminates result-cache entries by everything that can
// legally change the result surface or the error contract: the requested
// engine, strict-admissibility mode and pruning switch. Profile is
// deliberately absent — profiling changes billing detail, not results.
func (e hostEngine) CacheMode(opts QueryOptions) string {
	if opts.NoCache {
		return ""
	}
	m := e.Label(opts)
	if opts.FailOnInadmissible {
		m += "+strict"
	}
	if opts.DisablePruning {
		m += "+noprune"
	}
	return m
}

// PlanScope is the plan-cache scope for single-host binds; the tray binds
// against shard catalogs and uses its own scope (see cluster).
func (hostEngine) PlanScope() string { return "host" }

// Version returns table name's current version-vector entry: the
// host-level mutation SCN plus the RAPID replica's data epoch (which moves
// on checkpoint apply and compaction without a new host SCN).
func (e hostEngine) Version(name string) (qcache.Version, bool) {
	t, err := e.db.Table(name)
	if err != nil {
		return qcache.Version{}, false
	}
	v := qcache.Version{Name: name, MutSCN: t.MutationSCN()}
	if rt := t.Rapid(); rt != nil {
		v.Epoch = rt.DataEpoch()
	}
	return v, true
}

// FromCache builds the QueryResult for a result-cache hit or a shared
// singleflight execution from the template CacheEntry stored: the shared
// relation with ~zero marginal billing (no cycles, no DMS, no energy, no
// admission) and the saved cost carried from the producing execution.
func (hostEngine) FromCache(r *qcache.Result, opts QueryOptions) *QueryResult {
	res := *r.Payload.(*QueryResult)
	if opts.Profile {
		res.ProfileNote = fmt.Sprintf(
			"cache: hit — served from result cache; saved ~%d cycles, ~%d nJ, ~%.3fms execution",
			r.CyclesSaved, r.EnergySavedNJ, float64(r.WallNs)/1e6)
	}
	return &res
}

// CacheEntry wraps a finished miss execution as a result-cache entry whose
// payload is the result every later hit starts from. The relation is
// shared, never mutated (result relations are read-only once returned — the
// same invariant Query callers already rely on). Fallback results are never
// published: they are transitional (pending journal) and would leak
// host-fallback answers into strict-offload keys after checkpointing.
func (hostEngine) CacheEntry(res *QueryResult) *qcache.Result {
	if res.FellBack {
		return nil
	}
	return NewCacheEntry(&QueryResult{
		Rel:           res.Rel,
		Offloaded:     res.Offloaded,
		Explain:       res.Explain,
		EstRapidSec:   res.EstRapidSec,
		EstHostSec:    res.EstHostSec,
		Cache:         "hit",
		CyclesSaved:   res.Cycles,
		EnergySavedNJ: res.EnergyNJ,
	}, res.Rel, res.Cycles, res.EnergyNJ)
}

// SetCacheStatus records the cache interaction and surfaces it in EXPLAIN
// ANALYZE output: profiled RAPID executions get a `cache:` line in the
// profile, host-side runs get it appended to the profile note.
func (hostEngine) SetCacheStatus(res *QueryResult, opts QueryOptions, status string) {
	res.Cache = status
	if !opts.Profile {
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
