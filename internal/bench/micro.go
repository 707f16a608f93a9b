package bench

import (
	"fmt"
	"math"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dms"
	"rapid/internal/dpu"
	"rapid/internal/mem"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
)

// mkCols builds a synthetic relation of 4-byte columns.
func mkCols(rows, cols int) []coltypes.Data {
	out := make([]coltypes.Data, cols)
	for c := range out {
		d := coltypes.New(coltypes.W4, rows)
		for i := 0; i < rows; i++ {
			d.Set(i, int64(i*2654435761+c))
		}
		out[c] = d
	}
	return out
}

// fig8 regenerates Figure 8: hardware-partitioning bandwidth of the DMS
// for every strategy, 32-way over 4x4-byte columns.
func fig8() *Table {
	t := &Table{
		Title:   "Fig 8: Hardware-partitioning performance of DMS (32-way, 4x4B columns)",
		Headers: []string{"strategy", "GiB/s", "paper"},
	}
	eng := dms.NewEngine(dms.DefaultModel())
	cols := mkCols(microRows, 4)
	specs := []struct {
		name string
		spec dms.PartitionSpec
	}{
		{"radix", dms.PartitionSpec{Strategy: dms.Radix, Fanout: 32, KeyCols: []int{0}}},
		{"hash-1key", dms.PartitionSpec{Strategy: dms.Hash, Fanout: 32, KeyCols: []int{0}}},
		{"hash-2key", dms.PartitionSpec{Strategy: dms.Hash, Fanout: 32, KeyCols: []int{0, 1}}},
		{"hash-4key", dms.PartitionSpec{Strategy: dms.Hash, Fanout: 32, KeyCols: []int{0, 1, 2, 3}}},
		{"range", dms.PartitionSpec{Strategy: dms.Range, Fanout: 32, KeyCols: []int{0}}},
		{"round-robin", dms.PartitionSpec{Strategy: dms.RoundRobin, Fanout: 32}},
	}
	for _, s := range specs {
		tm, err := eng.PartitionTiming(cols, s.spec)
		if err != nil {
			t.AddRow(s.name, "ERR: "+err.Error(), "")
			continue
		}
		bw := tm.BytesPerSec() / gib
		t.AddRow(s.name, f2(bw), "~9.3")
		t.AddPoint(s.name+" GiB/s", "~9.3", 8.8, 10.0, bw)
	}
	t.AddNote("paper: ~9.3 GiB/s for all strategies; outperforms HARP's 6 GiB/s")
	return t
}

// fig9 regenerates Figure 9: DMS read / read+write bandwidth over column
// count and tile size.
func fig9() *Table {
	t := &Table{
		Title:   "Fig 9: Read/write performance with DMS (4B columns)",
		Headers: []string{"cols", "tile", "mode", "GiB/s"},
	}
	eng := dms.NewEngine(dms.DefaultModel())
	const totalRows = 1 << 18
	for _, nc := range []int{2, 4, 8, 16, 32} {
		src := mkCols(totalRows, nc)
		for _, tile := range []int{64, 128, 256} {
			for _, rw := range []bool{false, true} {
				eng.ResetTotals()
				for lo := 0; lo < totalRows; lo += tile {
					hi := min(lo+tile, totalRows)
					eng.Read(src, lo, hi)
					if rw {
						eng.WriteTiming(nc, hi-lo, coltypes.W4.Bytes())
					}
				}
				tot := eng.Totals()
				mode := "r"
				if rw {
					mode = "rw"
				}
				bw := tot.BytesPerSec() / gib
				t.AddRow(fmt.Sprintf("%d", nc), fmt.Sprintf("%d", tile), mode, f2(bw))
				if nc == 4 && tile == 128 && !rw {
					// 12.9 GB/s DDR3 channel peak = 12.0 GiB/s.
					t.AddPoint("4 cols, 128-row tiles, read GiB/s", ">= 9 (75% of DDR3 peak)", 9.0, 12.0, bw)
				}
			}
		}
	}
	t.AddNote("paper: >= 9 GiB/s at 128-row tiles (75%% of DDR3 peak); 64-row tiles slower; slight decay with more columns")
	return t
}

// filterMicro regenerates the §7.2 filter micro-benchmark.
func filterMicro() *Table {
	const rows = microRows
	t := &Table{
		Title:   "§7.2 Filter operator micro-benchmark",
		Headers: []string{"metric", "measured", "paper"},
	}
	soc := dpu.MustNew(dpu.DefaultConfig())
	core := soc.Core(0)
	d := coltypes.New(coltypes.W4, rows)
	for i := 0; i < rows; i++ {
		d.Set(i, int64(i%1000))
	}
	bv := bits.NewVector(rows)
	primitives.FilterConstBV(core, d, plan.LT, 500, bv)
	cyclesPerRow := float64(core.Cycles()) / float64(rows)
	ratePerCore := dpu.FreqHz / cyclesPerRow
	t.AddRow("cycles/tuple", f3(cyclesPerRow), "1.65")
	t.AddRow("Mtuples/s/core", f1(ratePerCore/1e6), "482")
	t.AddPoint("cycles/tuple", "1.65", 1.55, 1.75, cyclesPerRow)
	t.AddPoint("Mtuples/s/core", "482", 455, 520, ratePerCore/1e6)

	// Operator-level bandwidth: the whole filter operator (scan + predicate
	// chain) on 32 cores is DMS-bound; compute hides behind the transfers
	// ("the operator executes close to the memory bandwidth").
	ctx := qef.NewContext(qef.ModeDPU)
	wide := make([]coltypes.Data, 4)
	for c := range wide {
		w := coltypes.New(coltypes.W4, rows)
		for i := 0; i < rows; i++ {
			w.Set(i, int64(i%1000))
		}
		wide[c] = w
	}
	rel := benchRelation(wide)
	sink := &ops.CountSink{}
	err := ops.RelationScan(ctx, rel, 256, func() qef.Operator {
		return &ops.FilterOp{
			Pred: &ops.ConstCmp{Col: 0, Op: plan.LT, Val: 500},
			Next: sink,
		}
	})
	if err != nil {
		t.AddNote("operator run failed: %v", err)
		return t
	}
	opBW := float64(rows) * 16 / ctx.SimElapsed() / gib
	t.AddRow("GiB/s (32 cores, operator)", f2(opBW), "9.6")
	return t
}

// benchRelation wraps raw columns as an ops.Relation for benches.
func benchRelation(cols []coltypes.Data) *ops.Relation {
	rc := make([]ops.Col, len(cols))
	for i := range cols {
		rc[i] = ops.Col{Name: fmt.Sprintf("c%d", i), Type: coltypes.Int()}
	}
	return ops.MustRelation(rc, cols)
}

// fig10 regenerates Figure 10: software partitioning throughput over
// fan-out and tile size (2x4-byte columns, 32 cores).
func fig10() *Table {
	const rows = microRows
	t := &Table{
		Title:   "Fig 10: Software partitioning operator performance (2x4B columns, 32 cores)",
		Headers: []string{"fanout", "tile", "Mrows/s", "GiB/s(in)"},
	}
	cols := mkCols(rows, 2)
	for _, fanout := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		for _, tile := range []int{64, 128, 256, 512} {
			ctx := qef.NewContext(qef.ModeDPU)
			// Stage: hardware 32-way split feeds the cores.
			base, err := ops.PartitionByHash(ctx, [][]coltypes.Data{cols}, []int{0}, ops.PartScheme{Rounds: []int{32}}, tile)
			if err != nil {
				t.AddRow(fmt.Sprintf("%d", fanout), fmt.Sprintf("%d", tile), "ERR", err.Error())
				continue
			}
			ctx.Reset() // isolate the software round
			if err := ops.SWPartitionRound(ctx, base, fanout, 5, tile); err != nil {
				t.AddRow(fmt.Sprintf("%d", fanout), fmt.Sprintf("%d", tile), "ERR", err.Error())
				continue
			}
			sec := ctx.SimElapsed()
			t.AddRow(fmt.Sprintf("%d", fanout), fmt.Sprintf("%d", tile),
				f1(float64(rows)/sec/1e6), f2(float64(rows)*8/sec/gib))
			if fanout == 32 && tile == 256 {
				t.AddPoint("32-way, 256-row tiles Mrows/s", "~948", 600, 1400, float64(rows)/sec/1e6)
			}
		}
	}
	t.AddNote("paper: ~948 Mrows/s at 32-way; feasible to 64-way without significant drop; larger tiles better; 7-7.6 GiB/s")
	return t
}

// newHT returns a one-key compact hash table for n build rows, all of them
// DMEM-resident, over freshly made storage.
func newHT(n, buckets int) primitives.CompactHT {
	return primitives.NewCompactHT(n, buckets, make([]uint32, buckets+1), make([]uint32, n), make([]int64, n), nil)
}

// fig11 regenerates Figure 11: join build kernel rate vs tile size and
// hash-buckets size.
func fig11() *Table {
	const rows = kernelRows
	t := &Table{
		Title:   "Fig 11: Join build operator performance",
		Headers: []string{"tile", "buckets", "Mrows/s/core", "Brows/s/DPU"},
	}
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
	}
	kd := coltypes.FromInt64s(coltypes.W4, keys)
	hv := primitives.HashColumns(nil, []coltypes.Data{kd}, nil)
	rateAt := map[int]float64{} // tile -> rows/s/core at 2048 buckets
	for _, tile := range []int{64, 128, 256, 512, 1024} {
		for _, buckets := range []int{512, 1024, 2048, 4096, 8192} {
			soc := dpu.MustNew(dpu.DefaultConfig())
			core := soc.Core(0)
			ht := newHT(rows, buckets)
			ht.Build(core, hv, keys, nil, tile)
			sec := core.Cycles().Seconds()
			rate := float64(rows) / sec
			t.AddRow(fmt.Sprintf("%d", tile), fmt.Sprintf("%d", buckets),
				f1(rate/1e6), f2(32*rate/1e9))
			if buckets == 2048 {
				rateAt[tile] = rate
			}
		}
	}
	t.AddPoint("256-row tiles Mrows/s/core", "~46", 42, 52, rateAt[256]/1e6)
	t.AddPoint("tile 64 -> 1024 gain %", "~39", 30, 50, (rateAt[1024]/rateAt[64]-1)*100)
	t.AddNote("paper: buckets size has no impact (DMEM single-cycle); tile 64->1024 gains ~39%%; ~46 Mrows/s/core at 256; ~1.5 Brows/s/DPU")
	return t
}

// fig12 regenerates Figure 12: join probe kernel rate at 50% hit ratio.
func fig12() *Table {
	const rows = kernelRows
	t := &Table{
		Title:   "Fig 12: Join probe operator performance (hit ratio 50%)",
		Headers: []string{"tile", "buckets", "Mrows/s/core", "Brows/s/DPU"},
	}
	buildKeys := make([]int64, rows)
	for i := range buildKeys {
		buildKeys[i] = int64(i)
	}
	bkd := coltypes.FromInt64s(coltypes.W4, buildKeys)
	bhv := primitives.HashColumns(nil, []coltypes.Data{bkd}, nil)
	probeKeys := make([]int64, rows)
	for i := range probeKeys {
		probeKeys[i] = int64(i * 2) // half the probes miss
	}
	pkd := coltypes.FromInt64s(coltypes.W4, probeKeys)
	phv := primitives.HashColumns(nil, []coltypes.Data{pkd}, nil)
	lo, hi := math.Inf(1), 0.0
	for _, tile := range []int{64, 128, 256, 512, 1024} {
		for _, buckets := range []int{512, 1024, 2048, 4096, 8192} {
			soc := dpu.MustNew(dpu.DefaultConfig())
			core := soc.Core(0)
			ht := newHT(rows, buckets)
			ht.Build(nil, bhv, buildKeys, nil, tile)
			ht.Probe(core, phv, probeKeys, nil, tile, nil)
			sec := core.Cycles().Seconds()
			rate := float64(rows) / sec
			t.AddRow(fmt.Sprintf("%d", tile), fmt.Sprintf("%d", buckets),
				f1(rate/1e6), f2(32*rate/1e9))
			lo, hi = min(lo, 32*rate/1e9), max(hi, 32*rate/1e9)
		}
	}
	t.AddPoint("slowest point Brows/s/DPU", "0.88", 0.75, 1.35, lo)
	t.AddPoint("fastest point Brows/s/DPU", "1.35", 0.88, 1.6, hi)
	t.AddNote("paper: buckets size has no impact while DMEM-resident; tile 64->1024 gains up to ~30%%; 0.88-1.35 Brows/s/DPU")
	return t
}

// fig13 regenerates Figure 13: vectorization gain on the TPC-H Q3 join.
func fig13() *Table {
	const rows = kernelRows
	t := &Table{
		Title:   "Fig 13: Performance gain in join with vectorization (Q3 join kernel)",
		Headers: []string{"mode", "cycles/row", "branch misses/row", "elapsed (norm)"},
	}
	nb, np := rows/4, rows // orders : lineitem ~ 1:4 as in Q3
	buildKeys := make([]int64, nb)
	for i := range buildKeys {
		buildKeys[i] = int64(i)
	}
	probeKeys := make([]int64, np)
	for i := range probeKeys {
		probeKeys[i] = int64(i % (2 * nb)) // ~50% hit like Q3's date filters
	}
	bhv := primitives.HashColumns(nil, []coltypes.Data{coltypes.FromInt64s(coltypes.W4, buildKeys)}, nil)
	phv := primitives.HashColumns(nil, []coltypes.Data{coltypes.FromInt64s(coltypes.W4, probeKeys)}, nil)

	run := func(scalar bool) (cycles float64, misses float64) {
		soc := dpu.MustNew(dpu.DefaultConfig())
		core := soc.Core(0)
		ht := newHT(nb, primitives.BucketsFor(nb))
		ht.Build(core, bhv, buildKeys, nil, 256)
		ht.Probe(core, phv, probeKeys, nil, 256, nil)
		if scalar {
			primitives.ChargeScalarDispatch(core, nb+np)
		}
		return float64(core.Cycles()), float64(core.BranchMisses())
	}
	vecCy, vecMiss := run(false)
	scCy, scMiss := run(true)
	n := float64(nb + np)
	t.AddRow("vectorized", f2(vecCy/n), f3(vecMiss/n), "1.00")
	t.AddRow("row-at-a-time", f2(scCy/n), f3(scMiss/n), f2(scCy/vecCy))
	t.AddPoint("gain with vectorization %", "~46", 35, 60, (scCy/vecCy-1)*100)
	t.AddNote("branch misses drop from %.3f to %.3f per row", scMiss/n, vecMiss/n)
	return t
}

// fig4 regenerates the task-formation example of Figure 4: grouping
// scan+filter+aggregate into one task minimizes DRAM materialization.
func fig4() *Table {
	t := &Table{
		Title:   "Fig 4: Task formation example (1M rows, 4B columns, 25% selectivity)",
		Headers: []string{"formation", "tasks", "tile rows", "materialized bytes", "modeled cost"},
	}
	mk := func() []qcomp.OpReq {
		return []qcomp.OpReq{
			{DMEMSize: func(r int) int { return 2 * r * 8 }, OutBytesPerRow: 8, Selectivity: 1},
			{DMEMSize: (&ops.FilterOp{}).DMEMSize, OutBytesPerRow: 8, Selectivity: 0.25},
			{DMEMSize: func(r int) int { return r*8 + 64 }, OutBytesPerRow: 16, Selectivity: 1e-6},
		}
	}
	best, err := qcomp.FormTasks(mk(), 1_000_000)
	if err != nil {
		t.AddNote("error: %v", err)
		return t
	}
	t.AddRow("chosen (grouped)", fmt.Sprintf("%d", len(best.Tasks)),
		fmt.Sprintf("%d", best.Tasks[0].TileRows),
		fmt.Sprintf("%d", best.MaterializedBytes), f3(best.Cost*1e3)+" ms")
	t.AddNote("DMEM budget per core: %d bytes; the grouped formation pipelines all operators through DMEM and materializes only the final aggregate", mem.DMEMSize)
	return t
}
