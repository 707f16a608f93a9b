package hostdb_test

import (
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestRapidBillPins: what an offloaded ModeDPU run of TPC-H Q18 (SF 0.002,
// seed 42) bills, by running this query and printing the result. First
// captured at commit be404d6, before the bill was read through qef.Usage;
// re-captured when the binder moved Q18's IN semi-join from above the
// lineitem ⋈ orders ⋈ customer join onto Scan(orders): the join now
// partitions only the orders the sub-query names, 1,552,195 → 611,128
// cycles. Re-captured when plans became narrowed to their live columns
// (plan.Live): its inner joins output 5 and 6 columns instead of 6 and 8, the
// sub-query's Project and the root's became column selections of their
// sinks, 611,128 → 603,250 cycles and 204,221 → 202,610 nJ. The narrower
// sinks admit larger tiles (DMEM high water 25,320 → 30,088 bytes), and the
// modeled time rose by 23 ns (0.05 %): fewer, larger work units leave the
// busiest core a little later. Re-captured when a pipeline came to be lowered
// only where it does work: the lineitem ⋈ orders ⋈ customer join output is
// no longer streamed and collected again before its group-by, nor the groups
// before the top-k, and those were the only copies of them; the cycles do not
// move, 4.8416 → 4.3280 e-05 modeled seconds and 202,610 → 185,177 nJ, and
// the x86 model, which prices the same bytes, 11.75 → 10.49 µs. Everything
// must match exactly, the float
// seconds and joules too: the bill is per-core sums reduced in core order
// (qef.Context.Usage).
func TestRapidBillPins(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	q, _ := tpch.QueryByName("Q18")
	res, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 603250 || res.DMEMHighWater != 30088 || res.TilesPruned != 0 {
		t.Errorf("Cycles/DMEMHighWater/TilesPruned = %d/%d/%d, want 603250/30088/0",
			res.Cycles, res.DMEMHighWater, res.TilesPruned)
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"RapidSimSeconds", res.RapidSimSeconds, 4.328018682170544e-05},
		{"X86ModelSeconds", res.X86ModelSeconds, 1.049097627401352e-05},
		{"Energy.TotalJoules", res.Energy.TotalJoules(), 0.00018517771596511631},
		{"EnergyNJ", float64(res.EnergyNJ), 185177},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
}

// TestUnbilledExistsOverflow records a known gap in the bill without fixing
// it: a semi/anti join probes with ProbeExists, which charges no DRAM latency
// for build rows beyond the DMEM hash-table capacity, while the inner and
// outer join probe charges it. The test logs which TPC-H statements leave
// overflow rows unbilled this way at SF 0.05, the benchmark's scale; closing
// the gap moves their sim_ms and the pins above.
func TestUnbilledExistsOverflow(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	const counter = "ops_exists_overflow_rows_total"
	for _, q := range tpch.Queries() {
		before := db.Metrics().Values()[counter]
		if _, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, NoCache: true}); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if ov := db.Metrics().Values()[counter] - before; ov > 0 {
			t.Logf("%s: %d semi/anti build rows overflowed, their probes unbilled", q.Name, ov)
		}
	}
}
