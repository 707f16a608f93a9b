package qcomp

import (
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

// Estimate models a logical plan's execution time on RAPID.
func Estimate(n plan.Node) CostEstimate {
	switch node := n.(type) {
	case *plan.Scan:
		rows := int64(node.Table.Rows())
		bytes := int64(0)
		for _, c := range node.Cols {
			w := node.Table.Meta(c).Width
			bytes += rows * int64(w.Bytes())
		}
		return CostEstimate{
			Seconds:    float64(bytes) / dmsBytesPerSec,
			OutputRows: rows,
			OutputCols: len(node.Cols),
		}
	case *plan.Filter:
		in := Estimate(node.Input)
		// Filter compute overlaps the scan transfer; the filter runs at
		// ~1.65 cycles/row/core over 32 cores.
		compute := primitives.FilterCost(int(in.OutputRows)) / dpu.FreqHz / dpuCores
		sec := in.Seconds
		if compute > sec {
			sec = compute
		}
		out := int64(float64(in.OutputRows) * 0.3)
		if out < 1 {
			out = 1
		}
		return CostEstimate{Seconds: sec, OutputRows: out, OutputCols: in.OutputCols}
	case *plan.Project:
		in := Estimate(node.Input)
		compute := 3 * float64(in.OutputRows) / dpu.FreqHz / dpuCores
		return CostEstimate{Seconds: in.Seconds + compute, OutputRows: in.OutputRows, OutputCols: len(node.Exprs)}
	case *plan.Join:
		l := Estimate(node.Left)
		r := Estimate(node.Right)
		build, probe := r.OutputRows, l.OutputRows
		if build > probe {
			build, probe = probe, build
		}
		scheme := OptimizeScheme(RequiredPartitions(build*16, dpu.DefaultConfig()), build*16)
		partSec := SchemeCost(scheme, (l.OutputRows+r.OutputRows)*16)
		kernel := (primitives.JoinBuildCost(int(build), 256) +
			primitives.JoinProbeCost(int(probe), 256, 0.5)) / dpu.FreqHz / dpuCores
		return CostEstimate{
			Seconds:    l.Seconds + r.Seconds + partSec + kernel,
			OutputRows: probe,
			OutputCols: l.OutputCols + r.OutputCols,
		}
	case *plan.GroupBy:
		in := Estimate(node.Input)
		compute := 6 * float64(in.OutputRows) / dpu.FreqHz / dpuCores
		out := int64(1)
		if len(node.Keys) > 0 {
			out = in.OutputRows / 10
			if out < 1 {
				out = 1
			}
		}
		return CostEstimate{Seconds: in.Seconds + compute, OutputRows: out, OutputCols: len(node.Keys) + len(node.Aggs)}
	case *plan.Sort:
		in := Estimate(node.Input)
		compute := 24 * float64(in.OutputRows) / dpu.FreqHz / dpuCores
		return CostEstimate{Seconds: in.Seconds + compute, OutputRows: in.OutputRows, OutputCols: in.OutputCols}
	case *plan.Limit:
		in := Estimate(node.Input)
		out := int64(node.K)
		if in.OutputRows < out {
			out = in.OutputRows
		}
		return CostEstimate{Seconds: in.Seconds, OutputRows: out, OutputCols: in.OutputCols}
	case *plan.SetOp:
		l := Estimate(node.Left)
		r := Estimate(node.Right)
		return CostEstimate{Seconds: l.Seconds + r.Seconds, OutputRows: l.OutputRows + r.OutputRows, OutputCols: l.OutputCols}
	case *plan.Window:
		in := Estimate(node.Input)
		compute := 30 * float64(in.OutputRows) / dpu.FreqHz / dpuCores
		return CostEstimate{Seconds: in.Seconds + compute, OutputRows: in.OutputRows, OutputCols: in.OutputCols + 1}
	}
	return CostEstimate{Seconds: 0, OutputRows: 1, OutputCols: 1}
}

// OffloadBenefit compares RAPID offload against host-only execution for a
// fragment: returns (rapidTotalSec, hostSec). The host database offloads
// when rapidTotal < host (§3.1).
func OffloadBenefit(n plan.Node) (rapidSec, hostSec float64) {
	est := Estimate(n)
	transfer := float64(est.OutputRows*int64(est.OutputCols)*8) / resultLinkBps
	rapidSec = est.Seconds + transfer

	hostSec = hostCost(n)
	return rapidSec, hostSec
}

// hostCost models System X's row-at-a-time execution of the same fragment.
func hostCost(n plan.Node) float64 {
	switch node := n.(type) {
	case *plan.Scan:
		return float64(node.Table.Rows()) * hostRowFixedSec
	case *plan.Join:
		l := hostCost(node.Left)
		r := hostCost(node.Right)
		lr := Estimate(node.Left).OutputRows
		return l + r + float64(lr)*hostJoinProbeSec
	default:
		var sum float64
		for _, c := range n.Children() {
			sum += hostCost(c)
		}
		rows := Estimate(n).OutputRows
		return sum + float64(rows)*hostRowFixedSec
	}
}
