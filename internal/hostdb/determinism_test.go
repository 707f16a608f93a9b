package hostdb_test

import (
	"reflect"
	"runtime"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestRepeatedRunsBillIdentically is the gate of the bit-exact simulated
// currency: a statement over an unchanged snapshot bills the same cycles, DMS
// bytes, descriptors, seconds and joules — every float to the last bit — on
// every one of 20 repeats and at 1, 2 and 8 procs. Q3, Q10 and Q18 are the
// join-and-shuffle-heavy statements whose bus-lane sums, taken in
// unit-completion order under a mutex, gave a different last digit on almost
// every run at 8 procs.
func TestRepeatedRunsBillIdentically(t *testing.T) {
	type bill struct {
		cycles, energyNJ int64
		sim, x86, joules float64
		totals           obs.Totals // the whole qef.Usage, as the profile is finalized with it
	}
	first := map[string]bill{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		db := hostdb.New() // its scheduler sizes the worker pool from GOMAXPROCS
		if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.005, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Q3", "Q10", "Q18"} {
			q, _ := tpch.QueryByName(name)
			for rep := 0; rep < 20; rep++ {
				res, err := db.Query(q.SQL, hostdb.QueryOptions{
					Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, NoCache: true, Profile: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := bill{res.Cycles, res.EnergyNJ, res.RapidSimSeconds, res.X86ModelSeconds,
					res.Energy.TotalJoules(), res.Profile.Totals()}
				got.totals.WallSeconds, got.totals.QueueWaitSeconds = 0, 0 // the two that are wall clock
				want, ok := first[name]
				if !ok {
					first[name] = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, repeat %d at GOMAXPROCS=%d bills\n%+v\nthe first run billed\n%+v", name, rep, procs, got, want)
				}
			}
		}
		db.Close()
	}
}

// TestEveryMetricCarriesHelpAndTheSlabDrains: after one TPC-H pass on both
// lanes every metric name in the database's registry — the slab's three and
// qef_pool_grows_total included — renders with help text, the slab was leased
// from and holds returned buffers within its bound, and Close leaves it empty.
func TestEveryMetricCarriesHelpAndTheSlabDrains(t *testing.T) {
	db := hostdb.New()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.005, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
		for _, q := range tpch.Queries() {
			if _, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: mode, NoCache: true}); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
	}
	for _, m := range db.Metrics().Snapshot() {
		if m.Help == "" {
			t.Errorf("metric %s has no help text", m.Name)
		}
	}
	v := db.Metrics().Values()
	if _, ok := v["qef_pool_grows_total"]; !ok {
		t.Error("the pass never grew a tile pool: qef_pool_grows_total is not covered")
	}
	leases, misses, retained := v["mem_slab_leases_total"], v["mem_slab_misses_total"], v["mem_slab_retained_bytes"]
	if leases == 0 || misses == 0 || misses >= leases || retained <= 0 || retained > 96<<20 {
		t.Errorf("slab: %d leases, %d misses, %d bytes retained", leases, misses, retained)
	}
	db.Close()
	if got := db.Metrics().Values()["mem_slab_retained_bytes"]; got != 0 {
		t.Errorf("%d slab bytes retained after Close", got)
	}
}
