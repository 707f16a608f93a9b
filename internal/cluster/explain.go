package cluster

import (
	"fmt"
	"strings"
)

// Analyzed is the option an EXPLAIN ANALYZE statement sets.
func (engine) Analyzed(opts QueryOptions) QueryOptions {
	opts.Analyze = true
	return opts
}

// renderAnalyze renders the distributed EXPLAIN ANALYZE report: the
// execution-order trace (node-local fragments, exchanges, coordinator
// operators), one span per exchange with its row/byte/tile/link-time
// accounting, the per-node resource breakdown, and the query totals. All
// quantities are modeled, so the report is deterministic for a given query
// and tray shape.
func (q *query) renderAnalyze(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Distributed Plan (nodes=%d, mode=%s)\n", res.Nodes, q.mode)
	b.WriteString("Trace:\n")
	for i, s := range q.steps {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, s)
	}
	b.WriteString("Exchanges:\n")
	if len(res.Exchanges) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, st := range res.Exchanges {
		fmt.Fprintf(&b, "  %-9s %-28s rows_in=%-7d rows_out=%-7d moved_rows=%-7d bytes=%-9d tiles=%-4d link_us=%.2f\n",
			st.Kind, st.Label, st.RowsIn, st.RowsOut, st.MovedRows, st.MovedBytes, st.Tiles, st.Seconds*1e6)
	}
	b.WriteString("Per-node:\n")
	for i, ns := range res.PerNode {
		fmt.Fprintf(&b, "  node%-2d cycles=%-10d dms_rd=%-10d dms_wr=%-10d sim_us=%.2f\n",
			i, ns.Cycles, ns.DMSReadBytes, ns.DMSWriteBytes, ns.SimSeconds*1e6)
	}
	if res.TilesPruned > 0 {
		fmt.Fprintf(&b, "Pruning: tiles_pruned=%d via zone maps\n", res.TilesPruned)
	}
	fmt.Fprintf(&b, "Net: rows=%d bytes=%d tiles=%d link_us=%.2f energy_nj=%d\n",
		res.NetRows, res.NetBytes, res.NetTiles, res.NetSeconds*1e6, res.Energy.NetFJ/1e6)
	fmt.Fprintf(&b, "Makespan: sim_us=%.2f (node=%.2f net=%.2f coord=%.2f)\n",
		res.SimSeconds*1e6, res.NodeSimSeconds*1e6, res.NetSeconds*1e6, res.CoordSimSeconds*1e6)
	return b.String()
}
