package storage

// Table statistics (paper §3.4: "the RAPID metadata holds ... table
// statistics"). The RAPID QComp cost model and the partition-scheme
// optimizer consume these; the host database is the source on real systems,
// here they are computed at load time.

// ColStats summarizes one column.
type ColStats struct {
	Min, Max int64 // encoded domain bounds
	NDV      int64 // number of distinct values (exact up to ndvExactLimit)
	Exact    bool  // NDV is exact
}

// TableStats summarizes a table.
type TableStats struct {
	Rows int64
	Cols []ColStats
}

// ndvExactLimit caps the exact distinct-count tracking per column.
const ndvExactLimit = 1 << 21

// colStatsBuilder accumulates one column's statistics during load; the zero
// value is ready. Columns are independent, so a load may fill them on
// different goroutines.
type colStatsBuilder struct {
	min, max int64
	seen     map[int64]struct{}
	approx   bool
}

func (c *colStatsBuilder) add(v int64) {
	if c.seen == nil && !c.approx {
		c.min, c.max, c.seen = v, v, make(map[int64]struct{})
	}
	if v < c.min {
		c.min = v
	}
	if v > c.max {
		c.max = v
	}
	if !c.approx {
		c.seen[v] = struct{}{}
		if len(c.seen) > ndvExactLimit {
			c.approx = true
			c.seen = nil
		}
	}
}

// buildStats freezes the column builders of a rows-row load. It releases
// their distinct-value sets, so a kept-around builder does not pin up to
// ndvExactLimit entries per column.
func buildStats(rows int64, cols []colStatsBuilder) *TableStats {
	ts := &TableStats{Rows: rows, Cols: make([]ColStats, len(cols))}
	for i := range cols {
		c := &cols[i]
		cs := ColStats{Min: c.min, Max: c.max}
		if c.approx {
			// Conservative estimate: domain-width bounded by row count.
			cs.NDV = rows
			if width := c.max - c.min + 1; width > 0 && width < cs.NDV {
				cs.NDV = width
			}
		} else {
			cs.NDV = int64(len(c.seen))
			cs.Exact = true
		}
		c.seen = nil
		ts.Cols[i] = cs
	}
	return ts
}
