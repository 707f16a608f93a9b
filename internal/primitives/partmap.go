package primitives

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
)

// Software-partitioning primitives (paper §5.4, Listings 2 and 3): the
// vectorized data-partitioning pipeline of branch-free tight loops that
// extends the 32-way hardware fan-out to 1024+ ways in one pass.

// PartitionMap is the output of compute_partition_map: row indices grouped
// by partition, with per-partition extents.
type PartitionMap struct {
	// RowIdx holds the input row indices ordered by partition: rows of
	// partition p occupy RowIdx[Offsets[p]:Offsets[p+1]].
	RowIdx  []uint32
	Offsets []int32 // len = fanout+1
}

// Rows returns the row count of partition p.
func (m *PartitionMap) Rows(p int) int { return int(m.Offsets[p+1] - m.Offsets[p]) }

// ComputePartitionMap is Listing 2: from hardware-computed hash values,
// derive each row's partition (radix bits of the hash shifted by `shift`),
// histogram the tile, prefix-sum, and emit the partition-ordered row map.
// fanout must be a power of two.
func ComputePartitionMap(core *dpu.Core, hv []uint32, fanout int, shift uint) *PartitionMap {
	if fanout <= 0 || fanout&(fanout-1) != 0 {
		panic(fmt.Sprintf("primitives: fan-out %d must be a positive power of two", fanout))
	}
	mask := uint32(fanout - 1)
	n := len(hv)
	pids := make([]uint32, n)
	for i, h := range hv {
		pids[i] = (h >> shift) & mask
	}
	counts := make([]int32, fanout)
	for _, p := range pids {
		counts[p]++
	}
	m := &PartitionMap{RowIdx: make([]uint32, n), Offsets: make([]int32, fanout+1)}
	var sum int32
	for p, c := range counts {
		m.Offsets[p] = sum
		sum += c
	}
	m.Offsets[fanout] = sum
	fill := make([]int32, fanout)
	copy(fill, m.Offsets[:fanout])
	for i, p := range pids {
		m.RowIdx[fill[p]] = uint32(i)
		fill[p]++
	}
	charge(core, PartitionMapCost(n, fanout))
	return m
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
