package obs

import (
	"fmt"
	"strings"
)

// Format renders the profile as the EXPLAIN ANALYZE table: one row per
// operator (indented by data-flow depth), a "total" footer with the
// whole-query counters the spans reconcile against, and a summary line
// with the time totals. Columns are pipe-separated with raw integers so
// the output is machine-parseable as well as readable.
func (p *Profile) Format() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE (%s, %d cores", p.Mode, p.Cores)
	if p.adapted {
		b.WriteString(", plan adapted at runtime")
	}
	b.WriteString(")\n")

	depth := make([]int, len(p.Defs))
	for i, d := range p.Defs {
		if d.Parent >= 0 && d.Parent < len(depth) {
			depth[i] = depth[d.Parent] + 1
		}
	}

	// The energy column is DPU-only: ModeX86 does no cycle or DMS
	// accounting, so activity energy would render as a misleading zero.
	var rep EnergyReport
	energyCell := func(fj int64) string { return fmt.Sprintf("%.3f", fjJoules(fj)*1e6) }
	if p.isDPU() {
		rep = p.Energy(defaultEnergyModel())
	}

	rows := make([][]string, 0, len(p.Defs)+2)
	rows = append(rows, []string{"operator", "cycles", "rd_bytes", "wr_bytes", "energy_uj", "rows_in", "rows_out", "tiles_in", "tiles_out", "wall_ms"})
	for i, d := range p.Defs {
		c := p.spans[i].fold()
		name := strings.Repeat("  ", depth[i]) + d.Name
		if d.Detail != "" {
			name += " " + d.Detail
		}
		cell := "-"
		if p.isDPU() {
			cell = energyCell(rep.Spans[i].ActivityFJ())
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", c.cycles),
			fmt.Sprintf("%d", c.readBytes),
			fmt.Sprintf("%d", c.writeBytes),
			cell,
			fmt.Sprintf("%d", c.rowsIn),
			fmt.Sprintf("%d", c.rowsOut),
			fmt.Sprintf("%d", c.tilesIn),
			fmt.Sprintf("%d", c.tilesOut),
			fmt.Sprintf("%.3f", float64(c.wallNs)/1e6),
		})
	}
	totalEnergy := "-"
	if p.isDPU() {
		totalEnergy = energyCell(rep.Query.ActivityFJ())
	}
	rows = append(rows, []string{
		"total",
		fmt.Sprintf("%d", p.TotalCycles()),
		fmt.Sprintf("%d", p.totals.DMSReadBytes),
		fmt.Sprintf("%d", p.totals.DMSWriteBytes),
		totalEnergy,
		"", "", "", "",
		fmt.Sprintf("%.3f", p.totals.WallSeconds*1e3),
	})

	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for c, cell := range r {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for i, r := range rows {
		for c, cell := range r {
			if c > 0 {
				b.WriteString(" | ")
			}
			if c == 0 {
				fmt.Fprintf(&b, "%-*s", widths[c], cell)
			} else {
				fmt.Fprintf(&b, "%*s", widths[c], cell)
			}
		}
		b.WriteString("\n")
		if i == 0 {
			for c, w := range widths {
				if c > 0 {
					b.WriteString("-+-")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "sim %.6gs  bus_rd %.6gs  bus_wr %.6gs  wall %.3fms\n",
		p.totals.SimSeconds, p.totals.BusReadSeconds, p.totals.BusWriteSeconds,
		p.totals.WallSeconds*1e3)
	if p.totals.QueueWaitSeconds > 0 {
		fmt.Fprintf(&b, "queue_wait %.3fms (shared-SoC admission)\n", p.totals.QueueWaitSeconds*1e3)
	}
	if tot, pruned, scanned := p.tiles(); tot > 0 {
		fmt.Fprintf(&b, "tiles_pruned %d/%d (%.1f%%) via zone maps, %d scanned\n",
			pruned, tot, 100*float64(pruned)/float64(tot), scanned)
	}
	if p.cacheNote != "" {
		fmt.Fprintf(&b, "cache: %s\n", p.cacheNote)
	}
	if p.isDPU() {
		fmt.Fprintf(&b, "energy %.6g J (core %.6g + dms %.6g + idle %.6g)  provisioned %.6g J",
			rep.Query.TotalJoules(),
			fjJoules(rep.Query.CoreFJ),
			fjJoules(rep.Query.DMSReadFJ+rep.Query.DMSWriteFJ),
			rep.Query.IdleJ,
			rep.ProvisionedJ)
		if jpr := rep.JoulesPerRow(); jpr > 0 {
			fmt.Fprintf(&b, "  %.6g J/row", jpr)
		}
		b.WriteString("\n")
	}
	return b.String()
}
