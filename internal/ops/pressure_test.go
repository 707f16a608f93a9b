package ops

import (
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// Failure injection: a DPU configured with a fraction of the normal DMEM.
// Every operator must still produce correct results by shrinking tiles,
// overflowing hash tables to DRAM and re-partitioning — never by failing.

func tinyDMEMContext(t *testing.T, dmemBytes int) *qef.Context {
	t.Helper()
	cfg := dpu.DefaultConfig()
	cfg.DMEMBytes = dmemBytes
	return qef.NewContextWith(qef.ModeDPU, cfg)
}

func TestJoinUnderDMEMPressure(t *testing.T) {
	for _, dmem := range []int{4 * 1024, 8 * 1024} {
		ctx := tinyDMEMContext(t, dmem)
		n := 20000
		build := intRel([]string{"k", "v"},
			seq(n, func(i int) int64 { return int64(i) }),
			seq(n, func(i int) int64 { return int64(i * 2) }))
		probe := intRel([]string{"k"}, seq(n, func(i int) int64 { return int64(i) }))
		out, err := HashJoin(ctx, build, probe, JoinSpec{
			Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
			ProbePayload: []int{0}, BuildPayload: []int{1},
			Scheme: PartScheme{Rounds: []int{8}},
		})
		if err != nil {
			t.Fatalf("dmem=%d: %v", dmem, err)
		}
		if out.Rows() != n {
			t.Fatalf("dmem=%d: rows = %d, want %d", dmem, out.Rows(), n)
		}
		// Tiny DMEM forces overflow; simulated time must reflect the extra
		// DRAM traffic (slower than the comfortable configuration).
		comfortable := qef.NewContext(qef.ModeDPU)
		_, err = HashJoin(comfortable, build, probe, JoinSpec{
			Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
			ProbePayload: []int{0}, BuildPayload: []int{1},
			Scheme: PartScheme{Rounds: []int{8}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ctx.SimElapsed() < comfortable.SimElapsed() {
			t.Fatalf("dmem=%d: pressure run (%.3gms) faster than comfortable (%.3gms)",
				dmem, ctx.SimElapsed()*1e3, comfortable.SimElapsed()*1e3)
		}
	}
}

func TestPartitionUnderDMEMPressure(t *testing.T) {
	ctx := tinyDMEMContext(t, 4*1024)
	n := 30000
	cols := []struct{}{}
	_ = cols
	data := intRel([]string{"k", "v"},
		seq(n, func(i int) int64 { return int64(i * 7) }),
		seq(n, func(i int) int64 { return int64(i) }))
	pr, err := PartitionByHash(ctx, data.Chunks, []int{0}, PartScheme{Rounds: []int{8, 8}}, 512)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < pr.NumPartitions(); p++ {
		total += pr.Rows(p)
	}
	if total != n {
		t.Fatalf("rows lost under pressure: %d", total)
	}
}

func TestGroupByUnderDMEMPressure(t *testing.T) {
	ctx := tinyDMEMContext(t, 4*1024)
	n := 20000
	rel := intRel([]string{"g", "v"},
		seq(n, func(i int) int64 { return int64(i % 5000) }),
		seq(n, func(i int) int64 { return int64(i) }))
	out, err := GroupByPartitioned(ctx, rel, []int{0},
		[]AggSpec{{Kind: AggSum, Arg: 1, Name: "s"}}, colProg(2),
		PartScheme{Rounds: []int{8}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 5000 {
		t.Fatalf("groups = %d", out.Rows())
	}
	want := map[int64]int64{}
	for i := 0; i < n; i++ {
		want[int64(i%5000)] += int64(i)
	}
	for i := 0; i < out.Rows(); i++ {
		if out.Get(i, 1) != want[out.Get(i, 0)] {
			t.Fatal("wrong sum under pressure")
		}
	}
}

func TestScanFailsCleanlyWhenTileCannotFit(t *testing.T) {
	// 64-row minimum tiles of 40 wide columns, double-buffered, exceed a
	// 2 KiB scratchpad: the accessor must return an error, not corrupt
	// data or panic.
	ctx := tinyDMEMContext(t, 2*1024)
	cols, data := make([]Col, 40), make([]coltypes.Data, 40)
	for i := range cols {
		cols[i], data[i] = Col{Name: "c"}, coltypes.Of(seq(1000, func(j int) int64 { return int64(j) }))
	}
	rel := MustRelation(cols, data)
	sink := &CountSink{}
	err := RelationScan(ctx, rel, 64, func() qef.Operator { return sink })
	if err == nil {
		t.Fatal("expected DMEM exhaustion error")
	}
}

func TestOverflowStatsReported(t *testing.T) {
	// Direct kernel check: under a capacity squeeze the hash table still
	// reports every build row — the n-100 it could not hold overflowed (§6.4)
	// and still join.
	n := 1000
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	ht := primitives.NewCompactHT(100, 64, make([]uint32, 65), make([]uint32, n), make([]int64, n), nil)
	hv := make([]uint32, n)
	for i := range hv {
		hv[i] = uint32(i * 2654435761)
	}
	ht.Build(nil, hv, keys, nil, 256)
	if ht.Rows() != n {
		t.Fatalf("rows = %d, want %d (DMEM + overflow)", ht.Rows(), n)
	}
	if m := ht.Probe(nil, hv, keys, nil, 256, nil); len(m) != n {
		t.Fatalf("probe found %d of %d build rows", len(m), n)
	}
}
