package qgen

import "testing"

// TestMetamorphicCache soaks the query result cache: every generated query
// runs cold, then hot (all lanes must hit with the identical bag), then after
// a seed-picked single-row DML on each referenced table (no lane may serve a
// stale hit, and the fresh bags must match an uncached oracle), then re-warm.
// The host X86/DPU lanes share the primary's cache with a 2-node tray lane,
// so the host/tray key separation and MutSCN invalidation of tray entries
// are exercised on every query.
func TestMetamorphicCache(t *testing.T) {
	n := *flagN / 4
	if n < 30 {
		n = 30
	}
	checked, rejected := 0, 0
	for scen := 0; checked < n; scen++ {
		g := New(*flagSeed + 90210 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		r.EnableCache()
		if err := r.EnableTrays([]int{2}); err != nil {
			r.Close()
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && checked < n; i++ {
			q := g.NextQuery()
			if m := r.CheckCache(q); m != nil {
				t.Fatalf("%s", m.Reproducer())
			}
			checked++
		}
		rejected += r.Rejected
		r.Close()
	}
	t.Logf("cache: %d queries cycled cold/hot/DML/re-warm across %d host engines + tray lane (%d rejected consistently)",
		checked, len(engines), rejected)
}
