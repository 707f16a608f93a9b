package primitives

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
)

// Software-partitioning primitives (paper §5.4, Listings 2 and 3): the
// vectorized data-partitioning pipeline of branch-free tight loops that
// extends the 32-way hardware fan-out to 1024+ ways in one pass.

// ComputePartitionMap is Listing 2 as the software partitioning operator
// bills it: from hardware-computed hash values, each row's partition (radix
// bits of the hash shifted by `shift`), histogrammed into counts — one entry
// per partition, so len(counts) is the fan-out and must be a power of two.
// The operator moves its rows elsewhere, so only the counts are produced; the
// charge is the full map's (histogram, prefix sum, row map).
func ComputePartitionMap(core *dpu.Core, hv []uint32, shift uint, counts []int) {
	fanout := len(counts)
	if fanout <= 0 || fanout&(fanout-1) != 0 {
		panic(fmt.Sprintf("primitives: fan-out %d must be a positive power of two", fanout))
	}
	clear(counts)
	mask := uint32(fanout - 1)
	for _, h := range hv {
		counts[(h>>shift)&mask]++
	}
	charge(core, PartitionMapCost(len(hv), fanout))
}

// ChargeSwPartitionGather bills Listing 3 (swpart_partcol: gather the rows
// of one partition from an input column and emit them sequentially) for n
// gathered values (rows × columns): the software partitioning operator moves
// its data with one scatter per column and replays the per-tile gather cost
// through here.
func ChargeSwPartitionGather(core *dpu.Core, n int) {
	charge(core, costSwPartGatherPerRow*float64(n))
}

// GatherRows gathers arbitrary rows of a DMEM-resident column (single-cycle
// random access, §2.2).
func GatherRows(core *dpu.Core, in coltypes.Data, rowIdx []uint32, out coltypes.Data) {
	coltypes.Gather(out, in, rowIdx)
	charge(core, costGatherPerRow*float64(len(rowIdx)))
}
