package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/qcache"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

// cacheTray builds the explainDB host with the shared query cache enabled
// and a 2-node tray over it.
func cacheTray(t *testing.T) (*hostdb.Database, *cluster.Tray, *qcache.Cache) {
	t.Helper()
	db := explainDB(t)
	cache := db.EnableQueryCache(qcache.Config{})
	tray, err := cluster.New(db, cluster.Config{Nodes: 2, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tray.Close)
	for _, name := range []string{"facts", "dims"} {
		if err := tray.Load(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	return db, tray, cache
}

const trayCacheSQL = `SELECT g, SUM(v), COUNT(*) FROM facts WHERE g < 7 GROUP BY g`

// TestTrayCacheHitMissInvalidate walks one distributed query through the
// cache lifecycle: cold miss (billed), whitespace-variant hot hit (zero
// cycles, saved cost carried), literal-variant plan-cache reuse, host DML
// invalidation (stale, fresh answer), and re-warm.
func TestTrayCacheHitMissInvalidate(t *testing.T) {
	db, tray, cache := cacheTray(t)
	opts := cluster.QueryOptions{Mode: qef.ModeDPU}

	cold, err := tray.Query(trayCacheSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold query Cache = %q, want miss", cold.Cache)
	}
	if cold.TotalCycles == 0 {
		t.Fatal("cold DPU tray query billed zero cycles")
	}

	// Whitespace/case variant of the same statement must hit.
	hot, err := tray.Query("select  G, sum(V), count(*)\nfrom facts where G < 7 group by G", opts)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Cache != "hit" {
		t.Fatalf("hot query Cache = %q, want hit", hot.Cache)
	}
	if hot.Rel != cold.Rel {
		t.Fatal("cache hit did not share the stored relation")
	}
	if hot.TotalCycles != 0 || hot.EnergyNJ != 0 || hot.NetBytes != 0 {
		t.Fatalf("cache hit billed cycles=%d energy=%d net=%d, want all zero",
			hot.TotalCycles, hot.EnergyNJ, hot.NetBytes)
	}
	if hot.CyclesSaved != cold.TotalCycles || hot.EnergySavedNJ != cold.EnergyNJ {
		t.Fatalf("hit saved (%d cy, %d nJ), producing run cost (%d cy, %d nJ)",
			hot.CyclesSaved, hot.EnergySavedNJ, cold.TotalCycles, cold.EnergyNJ)
	}

	// A different literal is a different result (and plan) key: miss.
	lit, err := tray.Query(`SELECT g, SUM(v), COUNT(*) FROM facts WHERE g < 5 GROUP BY g`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if lit.Cache != "miss" {
		t.Fatalf("different-literal query Cache = %q, want miss", lit.Cache)
	}
	if lit.Rel.Rows() >= cold.Rel.Rows() {
		t.Fatalf("g<5 returned %d groups, expected fewer than g<7's %d", lit.Rel.Rows(), cold.Rel.Rows())
	}

	// The same statement under another execution mode misses the result
	// cache (mode is in the key) but reuses the bound plan skeleton — plan
	// scope is mode-independent.
	preplan := cache.Stats().PlanHits
	x86, err := tray.Query(trayCacheSQL, cluster.QueryOptions{Mode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if x86.Cache != "miss" {
		t.Fatalf("other-mode query Cache = %q, want miss", x86.Cache)
	}
	if got := cache.Stats().PlanHits; got != preplan+1 {
		t.Fatalf("plan hits = %d, want %d (skeleton reuse across modes)", got, preplan+1)
	}
	sameBags(t, "dpu vs x86 tray", cold.Rel, x86.Rel)

	// Host DML invalidates: the next read is stale (entry found, version
	// mismatch) and must see the new row via the reloaded shards.
	if _, err := db.Insert("facts", [][]storage.Value{{
		storage.IntValue(3), storage.IntValue(3), storage.IntValue(1_000_000),
	}}); err != nil {
		t.Fatal(err)
	}
	stale, err := tray.Query(trayCacheSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Cache != "stale" {
		t.Fatalf("post-DML query Cache = %q, want stale", stale.Cache)
	}
	if same := bag(stale.Rel); strings.Join(same, "") == strings.Join(bag(cold.Rel), "") {
		t.Fatal("post-DML read returned the pre-DML relation — stale hit")
	}
	rewarm, err := tray.Query(trayCacheSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rewarm.Cache != "hit" {
		t.Fatalf("re-warmed query Cache = %q, want hit", rewarm.Cache)
	}
	if rewarm.Rel != stale.Rel {
		t.Fatal("re-warmed hit did not serve the post-DML relation")
	}
}

// TestTrayCacheKeyedSeparatelyFromHost pins the key separation: a tray
// result can never answer the host's single-SoC lookup of the same SQL,
// and vice versa.
func TestTrayCacheKeyedSeparatelyFromHost(t *testing.T) {
	db, tray, _ := cacheTray(t)
	if _, err := tray.Query(trayCacheSQL, cluster.QueryOptions{Mode: qef.ModeDPU}); err != nil {
		t.Fatal(err)
	}
	hostRes, err := db.Query(trayCacheSQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if hostRes.Cache != "miss" {
		t.Fatalf("host lookup after tray warm-up Cache = %q, want miss (separate key space)", hostRes.Cache)
	}
	trayRes, err := tray.Query(trayCacheSQL, cluster.QueryOptions{Mode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if trayRes.Cache != "hit" {
		t.Fatalf("tray re-read Cache = %q, want hit", trayRes.Cache)
	}
	sameBags(t, "host vs cached tray", hostRes.Rel, trayRes.Rel)
}

// TestTrayNoCacheBypasses pins the opt-out: NoCache queries never look up,
// never publish, and are counted as bypasses.
func TestTrayNoCacheBypasses(t *testing.T) {
	_, tray, cache := cacheTray(t)
	opts := cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true}
	before := cache.Stats().Bypasses
	for i := 0; i < 2; i++ {
		res, err := tray.Query(trayCacheSQL, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "bypass" {
			t.Fatalf("NoCache run %d Cache = %q, want bypass", i, res.Cache)
		}
	}
	st := cache.Stats()
	if st.Bypasses != before+2 {
		t.Fatalf("bypasses = %d, want %d", st.Bypasses, before+2)
	}
	if st.ResidentEntries != 0 {
		t.Fatalf("NoCache queries published %d entries", st.ResidentEntries)
	}
}

// TestTrayCacheHitBypassesNodeAdmission occupies every admission slot of
// node 0 (one slot, no queue) and shows a warm hit still answers while an
// uncached query sheds.
func TestTrayCacheHitBypassesNodeAdmission(t *testing.T) {
	db := explainDB(t)
	db.EnableQueryCache(qcache.Config{})
	tray, err := cluster.New(db, cluster.Config{
		Nodes: 2, ReplicateMaxRows: -1,
		Sched: sched.Config{MaxConcurrent: 1, MaxQueued: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tray.Close)
	for _, name := range []string{"facts", "dims"} {
		if err := tray.Load(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	opts := cluster.QueryOptions{Mode: qef.ModeX86}
	if _, err := tray.Query(trayCacheSQL, opts); err != nil {
		t.Fatal(err)
	}

	adm, err := tray.NodeScheduler(0).Admit(context.Background(), sched.Request{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Release()

	// An uncached query must wait in node 0's admission queue (and here
	// time out); the warm hit below answers without touching any scheduler.
	qctx, cancelT := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelT()
	if _, err := tray.QueryCtx(qctx, trayCacheSQL, cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true}); err == nil {
		t.Fatal("uncached query ran while node 0's only slot is held")
	}
	res, err := tray.Query(trayCacheSQL, opts)
	if err != nil {
		t.Fatalf("cache hit blocked by node admission: %v", err)
	}
	if res.Cache != "hit" {
		t.Fatalf("Cache = %q, want hit", res.Cache)
	}
}

// TestTrayAnalyzeShowsCacheLine pins the cache line in the distributed
// EXPLAIN ANALYZE report for both the producing miss and the served hit.
func TestTrayAnalyzeShowsCacheLine(t *testing.T) {
	_, tray, _ := cacheTray(t)
	const sql = "EXPLAIN ANALYZE " + trayCacheSQL
	miss, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(miss.Analyze, "cache: miss") {
		t.Fatalf("miss report lacks cache line:\n%s", miss.Analyze)
	}
	hit, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hit.Analyze, "cache: hit — served from result cache") {
		t.Fatalf("hit report lacks cache line:\n%s", hit.Analyze)
	}
}

// TestTrayJournalFingerprintGroups pins the satellite at the tray level:
// literal and whitespace variants of one template share the journal
// fingerprint, and records carry the cache interaction.
func TestTrayJournalFingerprintGroups(t *testing.T) {
	db, tray, _ := cacheTray(t)
	variants := []string{
		`SELECT g, SUM(v), COUNT(*) FROM facts WHERE g < 7 GROUP BY g`,
		"select g, sum(v), count(*)  from facts\twhere g < 3 group by g",
	}
	for _, q := range variants {
		if _, err := tray.Query(q, cluster.QueryOptions{Mode: qef.ModeX86}); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.QueryJournal().Records()
	if len(recs) < 2 {
		t.Fatalf("journal holds %d records, want >= 2", len(recs))
	}
	a, b := recs[len(recs)-2], recs[len(recs)-1]
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("literal variants got fingerprints %x and %x, want equal", a.Fingerprint, b.Fingerprint)
	}
	if a.Cache != "miss" || b.Cache != "miss" {
		t.Fatalf("journal cache fields = %q, %q, want miss, miss", a.Cache, b.Cache)
	}
}

// TestPlanCacheHitClassifiesAgainstTheFreshShardMap: a plan-cache skeleton's
// Scans still point at the shard replicas of the bind that produced it. dims
// is hash-sharded when the skeleton is cached and explicitly re-loaded
// replicated afterwards (no host mutation, so the skeleton stays valid); the
// next execution of the skeleton must plan against the new load — the join
// is co-located with no exchange — not against the layout the stale pointers
// carry, under which every node would ship its full copy of dims.
func TestPlanCacheHitClassifiesAgainstTheFreshShardMap(t *testing.T) {
	_, tray, cache := cacheTray(t)
	const sql = `SELECT g, SUM(w), COUNT(*) FROM facts, dims WHERE g = dg GROUP BY g`
	moves := func(res *cluster.Result) (n int) {
		for _, ex := range res.Exchanges {
			if ex.Kind != "gather" {
				n++
			}
		}
		return n
	}

	sharded, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if moves(sharded) == 0 {
		t.Fatalf("facts ⋈ dims ran without an exchange while dims was hash-sharded: %+v", sharded.Exchanges)
	}

	if err := tray.Load("dims", &cluster.ShardSpec{Policy: storage.Replicated}); err != nil {
		t.Fatal(err)
	}
	preplan := cache.Stats().PlanHits
	// Another mode: a result-cache miss over the same plan skeleton.
	repl, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().PlanHits; repl.Cache != "miss" || got != preplan+1 {
		t.Fatalf("second run: cache %q, plan hits %d; want a result miss on a plan hit (%d)", repl.Cache, got, preplan+1)
	}
	if n := moves(repl); n != 0 {
		t.Errorf("join against the replicated dims still moved data in %d exchanges: %+v", n, repl.Exchanges)
	}
	sameBags(t, "dims sharded vs replicated", sharded.Rel, repl.Rel)
}
