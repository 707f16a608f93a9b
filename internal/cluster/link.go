// Package cluster implements the multi-node RAPID tray (paper §7.4: SF1000
// "sharded over 8 servers"): N full SoC nodes — each with its own 32
// virtual dpCores, DMEM scratchpads, DMS and shared-SoC scheduler — holding
// hash/range-sharded table replicas, a distributed executor that runs
// maximal node-local plan fragments per node, and exchange operators
// (shuffle, broadcast, gather) that move materialized tiles over a modeled
// interconnect. A coordinator merges per-node partial results with the
// exact single-node aggregate semantics, so distributed answers are
// bit-identical to single-node execution.
package cluster

import "rapid/internal/power"

// LinkModel is the analytical timing model of the tray interconnect, in the
// style of dms.Model: a per-message latency plus a serialized bandwidth
// term. The tray links are the bottleneck the paper's deployment works
// around by sharding (§7.4); the defaults model a 10GbE-class fabric whose
// exchange traffic is far slower per byte than the on-chip DMS, which is
// exactly why the planner prefers node-local fragments.
type LinkModel struct {
	// BytesPerSec is the per-link serialized bandwidth (10 Gb/s ≈ 1.25e9).
	BytesPerSec float64
	// MessageLatencySec is the per-tile fixed cost: NIC doorbell, switch
	// traversal and receive interrupt (~4 µs for kernel-bypass fabrics).
	MessageLatencySec float64
	// TileRows is the exchange granularity: relations move (and cancellation
	// is observed) in tiles of this many rows. Default 1024, matching the
	// storage chunk sweet spot.
	TileRows int
}

// DefaultLinkModel returns the calibrated tray interconnect model.
func DefaultLinkModel() LinkModel {
	return LinkModel{
		BytesPerSec:       1.25e9,
		MessageLatencySec: 4e-6,
		TileRows:          1024,
	}
}

// TransferSeconds prices moving one stream of rows*rowBytes over a link:
// one message latency per tile plus the serialized byte time.
func (m LinkModel) TransferSeconds(rows, rowBytes int) float64 {
	if rows <= 0 {
		return 0
	}
	tiles := (rows + m.TileRows - 1) / m.TileRows
	return float64(tiles)*m.MessageLatencySec + float64(rows*rowBytes)/m.BytesPerSec
}

// Tiles returns the number of link messages a stream of rows occupies.
func (m LinkModel) Tiles(rows int) int64 {
	if rows <= 0 {
		return 0
	}
	return int64((rows + m.TileRows - 1) / m.TileRows)
}

// EnergyFJ prices bytes crossing the fabric (power.LinkFJPerByte).
func (m LinkModel) EnergyFJ(bytes int64) int64 { return power.LinkEnergyFJ(bytes) }
