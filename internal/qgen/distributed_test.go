package qgen

import "testing"

// TestDistributedDifferential is the distributed differential battery: every
// generated query runs on the single-node engines AND on trays of 1, 2, 4
// and 8 nodes with all scenario tables hash-sharded, and every lane's result
// bag must match the host oracle. This exercises the distributed planner's
// join-localization cases, the shuffle/broadcast/gather exchange operators
// and the two-phase aggregation merge across random schemas and data,
// including empty shards and skewed key distributions.
//
// Replay a failure with:
//
//	go test ./internal/qgen -run DistributedDifferential -qgen.seed=<seed>
func TestDistributedDifferential(t *testing.T) {
	n := *flagN / 2
	if n < 60 {
		n = 60
	}
	executed, rejected := 0, 0
	for scen := 0; executed < n; scen++ {
		g := New(*flagSeed + 31337 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		if err := r.EnableTrays([]int{1, 2, 4, 8}); err != nil {
			r.Close()
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && executed < n; i++ {
			q := g.NextQuery()
			if m := r.Check(q); m != nil {
				m.Minimized = r.Minimize(m.SQL)
				t.Fatalf("%s", m.Reproducer())
			}
			// Every 10th query also runs billed and traced on one tray lane
			// (rotating through the widths): each fragment's cycle, DMS-byte
			// and energy decomposition must reconcile.
			if executed%10 == 0 {
				if m := r.CheckTrayFragments(q.SQL(), executed/10); m != nil {
					t.Fatalf("%s", m.Reproducer())
				}
			}
			executed++
		}
		if m := r.CheckJournal(); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		rejected += r.Rejected
		r.Close()
	}
	t.Logf("distributed differential: %d queries checked on %d single-node engines + 4 tray lanes (%d rejected consistently)",
		executed, len(engines), rejected)
}
