package hostdb_test

import (
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestRapidBillPins: what an offloaded ModeDPU run of TPC-H Q18 (SF 0.002,
// seed 42) bills, captured at commit be404d6 — before the bill was read
// through qef.Usage — by running this query there and printing the result.
// Everything must match exactly, the float seconds and joules too: the bill
// is per-core sums reduced in core order (qef.Context.Usage).
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
	if res.Cycles != 1552195 || res.DMEMHighWater != 25320 || res.TilesPruned != 0 {
		t.Errorf("Cycles/DMEMHighWater/TilesPruned = %d/%d/%d, parent returned 1552195/25320/0",
			res.Cycles, res.DMEMHighWater, res.TilesPruned)
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"RapidSimSeconds", res.RapidSimSeconds, 0.00010525941705426356},
		{"X86ModelSeconds", res.X86ModelSeconds, 1.6871684782608695e-05},
		{"Energy.TotalJoules", res.Energy.TotalJoules(), 0.0004392713224127907},
		{"EnergyNJ", float64(res.EnergyNJ), 439271},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, parent returned %v", c.what, c.got, c.want)
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
