package qcomp

import (
	"math"

	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
)

// The RAPID cost model (paper §5.2): running on bare metal, RAPID's costs
// are deterministic — analytic functions of data volume calibrated with
// micro-benchmarks. The host database uses these estimates for the
// cost-based offload decision (§3.1): offload when RAPID execution plus
// result transfer plus post-processing beats host-only execution.

// CostEstimate is the modeled execution of a plan fragment.
type CostEstimate struct {
	Seconds    float64 // modeled RAPID execution time
	OutputRows int64   // estimated result rows (network transfer volume)
	OutputCols int
}

const (
	dmsBytesPerSec   = 9.5 * (1 << 30)
	resultLinkBps    = 3.0 * (1 << 30) // RDMA result return (§3.2)
	hostRowFixedSec  = 120e-9          // System X per-row iterator cost
	hostJoinProbeSec = 250e-9
)

// dpuCores is the default SoC's dpCore count, which the estimates spread
// compute over.
var dpuCores = float64(dpu.DefaultConfig().NumCores)

// Estimate models the compiled plan's execution time on RAPID. Every row
// count it prices is the compiler's estimate of that node (lowering.node).
// Of a node spliced in as a relation (CompileWithInputs) only the rows are
// known, so Seconds is the time of a plan compiled whole.
func (c *Compiled) Estimate() CostEstimate {
	return CostEstimate{
		Seconds:    c.seconds(c.plan),
		OutputRows: c.rows[c.plan],
		OutputCols: len(c.root.fields()),
	}
}

// seconds is n's modeled RAPID time: its inputs' times plus its own compute
// over its input rows.
func (c *Compiled) seconds(n plan.Node) float64 {
	var sec float64
	for _, k := range n.Children() {
		sec += c.seconds(k)
	}
	perRow := func(cycles float64, in plan.Node) float64 {
		return cycles * float64(c.rows[in]) / dpu.FreqHz / dpuCores
	}
	switch node := n.(type) {
	case *plan.Scan:
		var width int64
		for _, col := range node.Cols {
			width += int64(node.Table.Meta(col).Width.Bytes())
		}
		return float64(c.rows[n]*width) / dmsBytesPerSec
	case *plan.Filter:
		// Filter compute overlaps the scan transfer; the filter runs at
		// ~1.65 cycles/row/core over 32 cores.
		return max(sec, primitives.FilterCost(int(c.rows[node.Input]))/dpu.FreqHz/dpuCores)
	case *plan.Project:
		if allBare(node) {
			return sec
		}
		return sec + perRow(3, node.Input)
	case *plan.Join:
		build, probe, filterSec := c.joinRows(node)
		scheme := OptimizeScheme(RequiredPartitions(build*16, dpu.DefaultConfig()), build*16)
		partSec := SchemeCost(scheme, (build+probe)*16)
		kernel := (primitives.JoinBuildCost(int(build), 256) +
			primitives.JoinProbeCost(int(probe), 256, 0.5)) / dpu.FreqHz / dpuCores
		return sec + filterSec + partSec + kernel
	case *plan.GroupBy:
		if pa := c.preaggs[node]; pa != nil {
			// The step reads every input row; the group-by its bound.
			return sec + perRow(pa.rowCycles(), node.Input) + 6*float64(pa.rows)/dpu.FreqHz/dpuCores
		}
		return sec + perRow(6, node.Input)
	case *plan.Sort:
		return sec + perRow(24, node.Input)
	case *plan.Window:
		return sec + perRow(30, node.Input)
	}
	return sec
}

// joinRows returns the rows join j is priced as building and probing, and
// the seconds of the join filter it fills. An inner join builds its smaller
// input; semi, anti and outer joins build their right input, as compileJoin
// pins them. Each input's rows are the compiler's estimate, less what the
// scheduled filters tested below it drop (priceFilters).
func (c *Compiled) joinRows(j *plan.Join) (build, probe int64, filterSec float64) {
	k := c.keepOf(j)
	l, r := int64(float64(c.rows[j.Left])*k[0]), int64(float64(c.rows[j.Right])*k[1])
	if j.Type != plan.InnerJoin {
		return r, l, c.filterSec[j]
	}
	return min(l, r), max(l, r), c.filterSec[j]
}

// priceFilters applies the schedule's arming rule at the compiler's row
// estimates, in the order the joins fill their filters (top-down, so a build
// side is narrowed by the filters above it before its own is priced). An
// armed filter fills from its join's build rows, tests every row its host
// collects, and passes its estimated fraction of them on to each join input
// between the host and the join (the filter's hops).
func (c *Compiled) priceFilters(sched []*joinFilter) {
	c.keep, c.filterSec = make(map[*plan.Join][2]float64), make(map[*plan.Join]float64)
	resident := make(map[*pipelineNode][]int)
	for _, f := range sched {
		j := f.join.logical
		side, build := 1, j.Right
		if f.join.swapped {
			side, build = 0, j.Left
		}
		nb := int64(float64(c.rows[build]) * c.keepOf(j)[side])
		logBits, pass, arm := f.arm(nb, resident[f.host])
		if !arm {
			continue
		}
		if resident[f.host] == nil {
			resident[f.host] = make([]int, len(f.host.steps))
		}
		resident[f.host][f.step] = 1 << logBits / 8
		c.filterSec[j] = (primitives.JoinFilterFillCost(int(nb)) +
			primitives.JoinFilterTestCost(len(f.keys))*float64(max(f.host.est, 1))) / dpu.FreqHz / dpuCores
		for _, h := range f.hops {
			k := c.keepOf(h.join.logical)
			k[h.side] *= pass
			c.keep[h.join.logical] = k
		}
	}
}

// keepOf is the fraction of each input's estimated rows, left then right,
// that the filters tested below join j leave it.
func (c *Compiled) keepOf(j *plan.Join) [2]float64 {
	if k, ok := c.keep[j]; ok {
		return k
	}
	return [2]float64{1, 1}
}

// allBare reports whether pr is a header move priced at nothing: it selects
// bare columns, which extend the pipeline they follow or, over a
// materialized relation, move its column headers (lowerPipeline).
func allBare(pr *plan.Project) bool {
	for _, e := range pr.Exprs {
		if _, ok := e.(*plan.ColRef); !ok {
			return false
		}
	}
	return true
}

// OffloadBenefit compares RAPID offload against host-only execution for the
// compiled fragment: returns (rapidTotalSec, hostSec). The host database
// offloads when rapidTotal < host (§3.1).
func (c *Compiled) OffloadBenefit() (rapidSec, hostSec float64) {
	est := c.Estimate()
	transfer := float64(est.OutputRows*int64(est.OutputCols)*8) / resultLinkBps
	return est.Seconds + transfer, c.hostCost(c.plan)
}

// OffloadBenefit compiles a fragment and prices it (Compiled.OffloadBenefit).
// A plan the compiler rejects cannot run on RAPID: its RAPID time is +Inf.
func OffloadBenefit(n plan.Node) (rapidSec, hostSec float64) {
	c, err := Compile(n)
	if err != nil {
		return math.Inf(1), 0
	}
	return c.OffloadBenefit()
}

// hostCost models System X's row-at-a-time execution of the same fragment.
func (c *Compiled) hostCost(n plan.Node) float64 {
	if j, ok := n.(*plan.Join); ok {
		return c.hostCost(j.Left) + c.hostCost(j.Right) + float64(c.rows[j.Left])*hostJoinProbeSec
	}
	var sum float64
	for _, k := range n.Children() {
		sum += c.hostCost(k)
	}
	return sum + float64(c.rows[n])*hostRowFixedSec
}
