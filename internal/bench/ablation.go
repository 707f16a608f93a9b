package bench

import (
	"fmt"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/mem"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
)

// Ablation studies for the design choices the paper argues for. Each table
// compares RAPID's choice against the alternative it displaced.

// ablationJoinAlgorithm compares the partitioned hash join (§6) against
// the sort-merge join (§6.5) on the simulated DPU.
func ablationJoinAlgorithm() *Table {
	const rows = microRows / 4
	t := &Table{
		Title:   "Ablation: hash join vs sort-merge join (simulated DPU)",
		Headers: []string{"algorithm", "sim ms", "Mrows/s (probe)"},
	}
	nb, np := rows/4, rows
	build := benchIntRel([]string{"k", "v"},
		seqI64(nb, func(i int) int64 { return int64(i) }),
		seqI64(nb, func(i int) int64 { return int64(i * 3) }))
	probe := benchIntRel([]string{"k"},
		seqI64(np, func(i int) int64 { return int64(i % (2 * nb)) }))
	spec := ops.JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		ProbePayload: []int{0}, BuildPayload: []int{1},
		Scheme: ops.PartScheme{Rounds: []int{32}},
	}
	run := func(name string, fn func(ctx *qef.Context) error) {
		ctx := qef.NewContext(qef.ModeDPU)
		if err := fn(ctx); err != nil {
			t.AddRow(name, "ERR", err.Error())
			return
		}
		sec := ctx.SimElapsed()
		t.AddRow(name, f3(sec*1e3), f1(float64(np)/sec/1e6))
	}
	run("hash join (§6)", func(ctx *qef.Context) error {
		_, err := ops.HashJoin(ctx, build, probe, spec)
		return err
	})
	run("sort-merge join (§6.5)", func(ctx *qef.Context) error {
		_, err := ops.SortMergeJoin(ctx, build, probe, spec)
		return err
	})
	t.AddNote("the paper follows Balkesen et al. [5] in preferring hash joins on this class of hardware")
	return t
}

// ablationPartitionScheme compares the optimized partitioning scheme
// (§5.3) against naive alternatives for a large fan-out target.
func ablationPartitionScheme() *Table {
	const rows = microRows / 2
	t := &Table{
		Title:   "Ablation: partition scheme optimization (target 1024 partitions)",
		Headers: []string{"scheme", "modeled cost ms", "sim ms"},
	}
	cols := mkCols(rows, 2)
	dataBytes := int64(rows * 8)
	optimized := qcomp.OptimizeScheme(1024, dataBytes)
	candidates := []struct {
		name   string
		scheme ops.PartScheme
	}{
		{"optimized: " + optimized.String(), optimized},
		{"asymmetric: 32x2x16", ops.PartScheme{Rounds: []int{32, 2, 16}}},
		{"max-first: 2x512", ops.PartScheme{Rounds: []int{2, 512}}},
		{"four rounds: 4x4x8x8", ops.PartScheme{Rounds: []int{4, 4, 8, 8}}},
	}
	for _, c := range candidates {
		if err := c.scheme.Validate(); err != nil {
			t.AddRow(c.name, "invalid", err.Error())
			continue
		}
		ctx := qef.NewContext(qef.ModeDPU)
		_, err := ops.PartitionByHash(ctx, [][]coltypes.Data{cols}, []int{0}, c.scheme, 256)
		if err != nil {
			t.AddRow(c.name, "ERR", err.Error())
			continue
		}
		t.AddRow(c.name, f3(qcomp.SchemeCost(c.scheme, dataBytes)*1e3), f3(ctx.SimElapsed()*1e3))
	}
	t.AddNote("heuristics of §5.3: power-of-two fan-outs, bounded per round, fewest rounds, symmetric splits")
	return t
}

// ablationFilterRepr compares the RID-list and bit-vector row
// representations across selectivities (the 1/32 rule of §5.4).
func ablationFilterRepr() *Table {
	const rows = microRows
	t := &Table{
		Title:   "Ablation: RID list vs bit-vector row representation",
		Headers: []string{"selectivity", "chosen", "RID bytes", "bitvec bytes", "2nd-pred cycles (RID)", "2nd-pred cycles (BV)"},
	}
	d := coltypes.New(coltypes.W4, rows)
	for i := 0; i < rows; i++ {
		d.Set(i, int64(i%100000))
	}
	for _, selPct := range []float64{0.01, 0.1, 1, 3.125, 10, 50} {
		threshold := int64(float64(100000) * selPct / 100)
		hits := 0
		for i := 0; i < rows; i++ {
			if d.Get(i) < threshold {
				hits++
			}
		}
		chosen := "bit-vector"
		if bits.ChooseRIDs(hits, rows) {
			chosen = "RID list"
		}
		// Cost of evaluating a SECOND predicate under each representation.
		socR := dpu.MustNew(dpu.DefaultConfig())
		rids := primitives.FilterConstRIDs(nil, d, plan.LT, threshold, nil, nil)
		primitives.FilterConstRIDs(socR.Core(0), d, plan.GE, 0, rids, nil)
		socB := dpu.MustNew(dpu.DefaultConfig())
		bv := bits.NewVector(rows)
		primitives.FilterConstBV(nil, d, plan.LT, threshold, bv)
		out := bits.NewVector(rows)
		primitives.FilterConstBVMasked(socB.Core(0), d, plan.GE, 0, bv, out)
		t.AddRow(
			fmt.Sprintf("%.3f%%", selPct),
			chosen,
			fmt.Sprintf("%d", 4*hits),
			fmt.Sprintf("%d", bits.VectorSizeBytes(rows)),
			fmt.Sprintf("%d", socR.Core(0).Cycles()),
			fmt.Sprintf("%d", socB.Core(0).Cycles()),
		)
	}
	t.AddNote("§5.4: RID lists win below 1/32 (3.125%%) qualifying rows; bit-vectors above")
	return t
}

// ablationCompactHT compares the bit-packed compact hash table (§6.3)
// against a plain 32-bit-array layout for DMEM capacity.
func ablationCompactHT() *Table {
	t := &Table{
		Title:   "Ablation: compact (ceil(log2 N)-bit) hash table vs 32-bit arrays",
		Headers: []string{"partition rows", "compact bytes", "plain32 bytes", "fits 32KiB DMEM (compact/plain)"},
	}
	for _, n := range []int{1024, 2048, 4096, 8192, 12288} {
		buckets := primitives.BucketsFor(n)
		compact := primitives.HTSizeBytes(n, buckets)
		plain := 4*n + 4*buckets
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", compact),
			fmt.Sprintf("%d", plain),
			fmt.Sprintf("%v / %v", compact <= mem.DMEMSize/2, plain <= mem.DMEMSize/2),
		)
	}
	t.AddNote("the compact layout lets partitions 2-3x larger stay DMEM-resident, cutting partitioning rounds")
	return t
}

func seqI64(n int, f func(int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func benchIntRel(names []string, cols ...[]int64) *ops.Relation {
	rc := make([]ops.Col, len(cols))
	data := make([]coltypes.Data, len(cols))
	for i := range cols {
		rc[i] = ops.Col{Name: names[i], Type: coltypes.Int()}
		data[i] = coltypes.Of(cols[i])
	}
	return ops.MustRelation(rc, data)
}
