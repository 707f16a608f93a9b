package qgen

import (
	"fmt"
	"strings"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/ops"
	"rapid/internal/qcache"
	"rapid/internal/qef"
	"rapid/internal/sqlparse"
	"rapid/internal/storage"
)

// Metamorphic cache lane: with the query cache enabled, a repeated query
// must hit and serve the identical bag on every lane, a mutation of any
// referenced table must invalidate (no stale hit), and the post-DML answer
// must match an uncached oracle run.

// EnableCache installs the shared query result cache on both databases
// (the tray lanes share the primary's cache through the host).
func (r *Runner) EnableCache() {
	r.primary.EnableQueryCache(qcache.Config{})
	r.alt.EnableQueryCache(qcache.Config{})
}

// cacheLaneRes is one lane's outcome in the cache check.
type cacheLaneRes struct {
	rel    *ops.Relation
	status string
	err    error
}

// CheckCache runs the cache metamorphic check on one generated query:
//
//  1. cold pass on every lane (host, X86, DPU, alternate layout, trays) —
//     primes or refreshes each lane's entry, all bags must agree;
//  2. hot pass — every lane must report a cache hit with the identical bag;
//  3. seed-picked single-row DML on every table the query references
//     (applied identically to both databases, checkpointed) — the next pass
//     must NOT hit, and its bag must equal an uncached oracle run;
//  4. re-warm — hits again, serving the post-DML answer.
//
// Queries every engine rejects are skipped, like the differential check.
func (r *Runner) CheckCache(q *Query) *Mismatch {
	sql := q.SQL()
	type lane struct {
		name string
		run  func(noCache bool) cacheLaneRes
	}
	var lanes []lane
	for _, e := range engines {
		e := e
		db := r.primary
		if e.alt {
			db = r.alt
		}
		lanes = append(lanes, lane{name: e.name, run: func(noCache bool) cacheLaneRes {
			opts := e.opts
			opts.NoCache = noCache
			res, err := db.Query(sql, opts)
			r.Executed++
			if err == nil && res.FellBack {
				err = fmt.Errorf("RAPID execution fell back to host")
			}
			if err != nil {
				return cacheLaneRes{err: err}
			}
			return cacheLaneRes{rel: res.Rel, status: res.Cache}
		}})
	}
	for _, tl := range r.trays {
		tl := tl
		lanes = append(lanes, lane{name: fmt.Sprintf("tray%d", tl.nodes), run: func(noCache bool) cacheLaneRes {
			res, err := tl.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, NoCache: noCache})
			r.Executed++
			if err != nil {
				return cacheLaneRes{err: err}
			}
			return cacheLaneRes{rel: res.Rel, status: res.Cache}
		}})
	}

	// Cold pass. A host rejection must be unanimous (the generator probes
	// error paths); any split is an ordinary differential bug.
	cold := make([]cacheLaneRes, len(lanes))
	for i, l := range lanes {
		cold[i] = l.run(false)
	}
	if cold[0].err != nil {
		for i, l := range lanes {
			if cold[i].err == nil {
				return r.mismatch("cache", sql, fmt.Sprintf(
					"host rejected the query (%v) but %s executed it", cold[0].err, l.name))
			}
		}
		r.Rejected++
		return nil
	}
	hostBag := bag(cold[0].rel)
	for i, l := range lanes[1:] {
		if cold[i+1].err != nil {
			return r.mismatch("cache", sql, fmt.Sprintf(
				"host executed the query but %s failed cold: %v", l.name, cold[i+1].err))
		}
		if d := diffBags(hostBag, bag(cold[i+1].rel)); d != "" {
			return r.mismatch("cache", sql, fmt.Sprintf("cold host vs %s: %s", l.name, d))
		}
	}

	// Hot pass: every lane must hit and serve the identical bag.
	for i, l := range lanes {
		hot := l.run(false)
		if hot.err != nil {
			return r.mismatch("cache", sql, fmt.Sprintf("%s failed hot: %v", l.name, hot.err))
		}
		if hot.status != "hit" {
			return r.mismatch("cache", sql, fmt.Sprintf(
				"%s hot status = %q, want hit", l.name, hot.status))
		}
		if d := diffBags(bag(cold[i].rel), bag(hot.rel)); d != "" {
			return r.mismatch("cache", sql, fmt.Sprintf("%s cold vs hot: %s", l.name, d))
		}
	}

	// Seed-picked DML on every referenced table: duplicate one existing row
	// (valid by construction), identically in both databases, checkpointed
	// so the strict offload lanes stay admissible. Tray shards reload on
	// their next bind.
	mutated := false
	for ti, tb := range r.referencedTables(sql) {
		if len(tb.Rows) == 0 {
			continue
		}
		row := tb.Rows[g0(r.Sc.Seed+int64(ti), len(tb.Rows))]
		for _, db := range []*hostdb.Database{r.primary, r.alt} {
			if _, err := db.Insert(tb.Name, [][]storage.Value{row}); err != nil {
				return r.mismatch("cache", sql, fmt.Sprintf("DML on %s: %v", tb.Name, err))
			}
			if err := db.Checkpoint(tb.Name); err != nil {
				return r.mismatch("cache", sql, fmt.Sprintf("checkpoint %s: %v", tb.Name, err))
			}
		}
		mutated = true
	}
	if !mutated {
		return nil // nothing to invalidate (all referenced tables empty)
	}

	// Post-DML pass: a hit here is a stale result — the bug this lane
	// exists to catch. The fresh bags must match an uncached oracle run.
	oracle := lanes[0].run(true)
	if oracle.err != nil {
		return r.mismatch("cache", sql, fmt.Sprintf("post-DML oracle failed: %v", oracle.err))
	}
	oracleBag := bag(oracle.rel)
	post := make([]cacheLaneRes, len(lanes))
	for i, l := range lanes {
		post[i] = l.run(false)
		if post[i].err != nil {
			return r.mismatch("cache", sql, fmt.Sprintf(
				"%s executed before the DML but failed after it: %v", l.name, post[i].err))
		}
		if post[i].status == "hit" {
			return r.mismatch("cache", sql, fmt.Sprintf(
				"%s served a cache hit after DML on a referenced table (stale result)", l.name))
		}
		if d := diffBags(oracleBag, bag(post[i].rel)); d != "" {
			return r.mismatch("cache", sql, fmt.Sprintf(
				"post-DML uncached oracle vs %s: %s", l.name, d))
		}
	}

	// Re-warm: the refreshed entries must hit and keep the new answer.
	for i, l := range lanes {
		re := l.run(false)
		if re.err != nil {
			return r.mismatch("cache", sql, fmt.Sprintf("%s failed on re-warm: %v", l.name, re.err))
		}
		if re.status != "hit" {
			return r.mismatch("cache", sql, fmt.Sprintf(
				"%s re-warm status = %q, want hit", l.name, re.status))
		}
		if d := diffBags(bag(post[i].rel), bag(re.rel)); d != "" {
			return r.mismatch("cache", sql, fmt.Sprintf("%s post-DML vs re-warm: %s", l.name, d))
		}
	}
	return nil
}

// referencedTables resolves the scenario tables a statement reads, in
// scenario order (deduplicated).
func (r *Runner) referencedTables(sql string) []*Table {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil
	}
	names := make(map[string]bool)
	for _, n := range sqlparse.StmtTables(stmt) {
		names[strings.ToLower(n)] = true
	}
	var out []*Table
	for _, tb := range r.Sc.Tables {
		if names[strings.ToLower(tb.Name)] {
			out = append(out, tb)
		}
	}
	return out
}
