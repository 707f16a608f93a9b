package hostdb

import "rapid/internal/qcache"

// Query-cache glue of the single-SoC engine. The cache itself lives in
// internal/qcache and the lookup / singleflight / publish logic in RunQuery
// (DESIGN.md "Query lifecycle"); this file supplies the host-side keying,
// version vectors and the report's cache line.

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

// CacheNote surfaces the cache interaction in the EXPLAIN ANALYZE output of
// a profiled query: a RAPID execution's profile gets a `cache:` line, a
// host-side run or a hit gets it in the profile note.
func (hostEngine) CacheNote(res *QueryResult, opts QueryOptions, hit *qcache.Result) {
	switch {
	case !opts.Profile:
	case res.Profile != nil:
		res.Profile.SetCacheNote(res.Cache)
	case res.ProfileNote != "":
		res.ProfileNote += "; " + CacheLine(res.Cache, hit)
	default:
		res.ProfileNote = CacheLine(res.Cache, hit)
	}
}
