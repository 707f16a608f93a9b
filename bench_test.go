package rapid

// One testing.B benchmark per table/figure of the paper's evaluation (§7).
// The benchmarks exercise the real kernels; simulated DPU metrics (GiB/s,
// Mrows/s at 800 MHz) are attached via b.ReportMetric next to the native
// wall-clock numbers Go reports. `go test -bench=. -benchmem` regenerates
// everything; cmd/rapid-bench prints the full paper-style tables.

import (
	"fmt"
	"sync"
	"testing"

	"rapid/internal/bench"
	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dms"
	"rapid/internal/dpu"
	"rapid/internal/hostdb"
	"rapid/internal/ops"
	"rapid/internal/primitives"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

func mk4ByteCols(rows, cols int) []coltypes.Data {
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

// Fig 8: hardware partitioning bandwidth per DMS strategy.
func BenchmarkFig8_HardwarePartitioning(b *testing.B) {
	const rows = 1 << 20
	cols := mk4ByteCols(rows, 4)
	strategies := []struct {
		name string
		spec dms.PartitionSpec
	}{
		{"radix", dms.PartitionSpec{Strategy: dms.Radix, Fanout: 32, KeyCols: []int{0}}},
		{"hash1", dms.PartitionSpec{Strategy: dms.Hash, Fanout: 32, KeyCols: []int{0}}},
		{"hash2", dms.PartitionSpec{Strategy: dms.Hash, Fanout: 32, KeyCols: []int{0, 1}}},
		{"hash4", dms.PartitionSpec{Strategy: dms.Hash, Fanout: 32, KeyCols: []int{0, 1, 2, 3}}},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			eng := dms.NewEngine(dms.DefaultModel())
			var simBW float64
			for i := 0; i < b.N; i++ {
				_, tm, err := eng.PartitionIDs(cols, s.spec)
				if err != nil {
					b.Fatal(err)
				}
				simBW = tm.BytesPerSec() / (1 << 30)
			}
			b.SetBytes(rows * 16)
			b.ReportMetric(simBW, "simGiB/s")
		})
	}
}

// Fig 9: DMS read bandwidth at the calibration point (4 cols, 128 rows).
func BenchmarkFig9_DMSReadWrite(b *testing.B) {
	const rows = 1 << 17
	src := mk4ByteCols(rows, 4)
	eng := dms.NewEngine(dms.DefaultModel())
	bufs := make([]coltypes.Data, 4)
	for c := range bufs {
		bufs[c] = coltypes.New(coltypes.W4, 128)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ResetTotals()
		for lo := 0; lo+128 <= rows; lo += 128 {
			eng.Read(src, lo, lo+128, bufs)
		}
		b.ReportMetric(eng.Totals().BytesPerSec()/(1<<30), "simGiB/s")
	}
	b.SetBytes(rows * 16)
}

// §7.2: the filter primitive (Listing 1).
func BenchmarkFilterMicro(b *testing.B) {
	const rows = 1 << 20
	d := coltypes.New(coltypes.W4, rows)
	for i := 0; i < rows; i++ {
		d.Set(i, int64(i%1000))
	}
	soc := dpu.MustNew(dpu.DefaultConfig())
	core := soc.Core(0)
	bv := bits.NewVector(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bv.ClearAll()
		core.Reset()
		primitives.FilterConstBV(core, d, primitives.LT, 500, bv)
	}
	b.SetBytes(rows * 4)
	cyclesPerRow := float64(core.Cycles()) / rows
	b.ReportMetric(cyclesPerRow, "simCycles/row")
	b.ReportMetric(soc.Config().FreqHz/cyclesPerRow/1e6, "simMrows/s/core")
}

// Fig 10: software partitioning at the paper's headline point (32-way).
func BenchmarkFig10_SoftwarePartitioning(b *testing.B) {
	const rows = 1 << 19
	cols := mk4ByteCols(rows, 2)
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		ctx := qef.NewContext(qef.ModeDPU)
		base, err := ops.PartitionByHash(ctx, cols, []int{0}, ops.PartScheme{Rounds: []int{32}}, 256)
		if err != nil {
			b.Fatal(err)
		}
		ctx.Reset()
		if _, err := ops.SWPartitionRound(ctx, base, 32, 5, 256); err != nil {
			b.Fatal(err)
		}
		rate = float64(rows) / ctx.SimElapsed() / 1e6
	}
	b.SetBytes(rows * 8)
	b.ReportMetric(rate, "simMrows/s")
}

// Fig 11: join build kernel.
func BenchmarkFig11_JoinBuild(b *testing.B) {
	for _, tile := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			const rows = 1 << 16
			keys := make([]int64, rows)
			for i := range keys {
				keys[i] = int64(i)
			}
			hv := primitives.HashColumns(nil, []coltypes.Data{coltypes.FromInt64s(coltypes.W4, keys)}, nil)
			soc := dpu.MustNew(dpu.DefaultConfig())
			core := soc.Core(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Reset()
				ht := primitives.NewCompactHT(rows, 2048)
				ht.Build(core, hv, keys, nil, tile)
			}
			sec := soc.Config().Seconds(core.Cycles())
			b.ReportMetric(float64(rows)/sec/1e6, "simMrows/s/core")
		})
	}
}

// Fig 12: join probe kernel at 50% hit ratio.
func BenchmarkFig12_JoinProbe(b *testing.B) {
	for _, tile := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			const rows = 1 << 16
			buildKeys := make([]int64, rows)
			probeKeys := make([]int64, rows)
			for i := range buildKeys {
				buildKeys[i] = int64(i)
				probeKeys[i] = int64(i * 2)
			}
			bhv := primitives.HashColumns(nil, []coltypes.Data{coltypes.FromInt64s(coltypes.W4, buildKeys)}, nil)
			phv := primitives.HashColumns(nil, []coltypes.Data{coltypes.FromInt64s(coltypes.W4, probeKeys)}, nil)
			ht := primitives.NewCompactHT(rows, 2048)
			ht.Build(nil, bhv, buildKeys, nil, tile)
			soc := dpu.MustNew(dpu.DefaultConfig())
			core := soc.Core(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Reset()
				ht.Probe(core, phv, probeKeys, nil, tile, nil)
			}
			sec := soc.Config().Seconds(core.Cycles())
			b.ReportMetric(32*float64(rows)/sec/1e9, "simBrows/s/DPU")
		})
	}
}

// Fig 13: vectorized vs row-at-a-time join execution.
func BenchmarkFig13_Vectorization(b *testing.B) {
	const rows = 1 << 16
	nb, np := rows/4, rows
	buildKeys := make([]int64, nb)
	probeKeys := make([]int64, np)
	for i := range buildKeys {
		buildKeys[i] = int64(i)
	}
	for i := range probeKeys {
		probeKeys[i] = int64(i % (2 * nb))
	}
	bhv := primitives.HashColumns(nil, []coltypes.Data{coltypes.FromInt64s(coltypes.W4, buildKeys)}, nil)
	phv := primitives.HashColumns(nil, []coltypes.Data{coltypes.FromInt64s(coltypes.W4, probeKeys)}, nil)
	for _, vectorized := range []bool{true, false} {
		name := "vectorized"
		if !vectorized {
			name = "row-at-a-time"
		}
		b.Run(name, func(b *testing.B) {
			soc := dpu.MustNew(dpu.DefaultConfig())
			core := soc.Core(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Reset()
				ht := primitives.NewCompactHT(nb, primitives.BucketsFor(nb))
				ht.Build(core, bhv, buildKeys, nil, 256)
				ht.Probe(core, phv, probeKeys, nil, 256, nil)
				if !vectorized {
					primitives.ChargeScalarDispatch(core, nb+np)
				}
			}
			b.ReportMetric(float64(core.Cycles())/float64(nb+np), "simCycles/row")
		})
	}
}

var (
	benchDBOnce sync.Once
	benchDB     *hostdb.Database
	benchDBErr  error
)

func tpchBenchDB(b *testing.B) *hostdb.Database {
	b.Helper()
	benchDBOnce.Do(func() {
		benchDB = hostdb.New()
		benchDBErr = tpch.PopulateHostDB(benchDB, tpch.Config{ScaleFactor: 0.005, Seed: 2018})
	})
	if benchDBErr != nil {
		b.Fatal(benchDBErr)
	}
	return benchDB
}

// Fig 16 (and the System X side of Fig 14): each TPC-H query on the
// System X row engine vs RAPID software.
func BenchmarkFig16_SoftwareOnly(b *testing.B) {
	db := tpchBenchDB(b)
	for _, q := range tpch.Queries() {
		q := q
		b.Run(q.Name+"/systemx", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.Name+"/rapid-sw", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fig 14 + Fig 15: the simulated-DPU run of every query, reporting the
// perf/watt ratio and offload fraction.
func BenchmarkFig14_PerfPerWatt(b *testing.B) {
	db := tpchBenchDB(b)
	for i := 0; i < b.N; i++ {
		runs, err := bench.RunQueries(db, 1)
		if err != nil {
			b.Fatal(err)
		}
		var ppw, frac float64
		for _, r := range runs {
			ppw += r.PerfPerWatt()
			frac += r.RapidFrac
		}
		b.ReportMetric(ppw/float64(len(runs)), "avgPerfPerWatt")
		b.ReportMetric(100*frac/float64(len(runs)), "avgRapid%")
	}
}

// Fig 4: the task-formation optimization itself.
func BenchmarkFig4_TaskFormation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.RunFig4()
		if len(tbl.Rows) != 1 {
			b.Fatal("task formation failed")
		}
	}
}
