package bench

import "testing"

// TestQ6ScalingFloor is the ISSUE acceptance bar: sharding lineitem over 8
// nodes must buy Q6 at least a 3x simulated-throughput speedup over the
// 1-node tray.
// The scale factor must be large enough that per-node scan work dominates
// the tray's fixed costs (per-node sim floor + one gather message per
// node); at SF 0.06 the modeled speedup is a deterministic 3.6x.
func TestQ6ScalingFloor(t *testing.T) {
	db, err := SetupTPCH(0.06)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runs, err := RunScaling(db, []int{1, 8}, []string{"Q6"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ScalingSpeedup(runs, "Q6", 8); got < 3 {
		t.Fatalf("Q6 1->8 node simulated speedup = %.2fx, want >= 3x", got)
	}
	tbl := RunScalingTable(runs)
	if len(tbl.Rows) != len(runs) {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(runs))
	}
}

// TestQ18ScalingFloor gates the cost of distributing the join-heaviest query:
// at SF 0.06 the 4-node tray must not be slower, in simulated time, than the
// 1-node tray, and must put under 1 MB on the link. Before exchanges were
// decided once and by bytes Q18 anti-scaled — 27.3 ms on one node, 57.4 ms
// on four, 63 MB moved: the lineitem ⋈ orders output was shuffled three times
// and then gathered. It now broadcasts customer (9 000 rows × 2 columns,
// 432 KB) and gathers the finished groups: 4.9 ms → 1.4 ms, 579 KB, all of
// it modeled and therefore deterministic.
func TestQ18ScalingFloor(t *testing.T) {
	db, err := SetupTPCH(0.06)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runs, err := RunScaling(db, []int{1, 4}, []string{"Q18"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ScalingSpeedup(runs, "Q18", 4); got < 1 {
		t.Fatalf("Q18 1->4 node simulated speedup = %.2fx, want >= 1x (it must not anti-scale)", got)
	}
	const ceiling = 1_000_000
	for _, r := range runs {
		if r.Nodes == 4 && r.NetBytes > ceiling {
			t.Fatalf("Q18 on 4 nodes moved %d bytes, want <= %d", r.NetBytes, ceiling)
		}
	}
}
