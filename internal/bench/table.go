// Package bench regenerates the simulated-currency tables and figures of the
// paper's evaluation section (§7): micro-benchmarks on the simulated DPU and
// system benchmarks over the TPC-H workload in ModeDPU. Every number it
// prints is a pure function of the source tree — modeled cycles, DMS bytes,
// link bytes, energy — so Run's text is committed as testdata/figures.golden
// and compared byte for byte. Wall-clock measurements live in benchmark/.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Points  []PaperPoint
	Notes   []string
}

// PaperPoint is one number the paper states, held beside the value this tree
// produces: Got is exact (the golden file pins it), [Lo, Hi] is the tolerance
// band against the paper that TestPaperPoints asserts.
type PaperPoint struct {
	Name   string
	Paper  string
	Lo, Hi float64
	Got    float64
}

// InBand reports whether the measured value is inside the band.
func (p PaperPoint) InBand() bool { return p.Got >= p.Lo && p.Got <= p.Hi }

func (p PaperPoint) String() string {
	s := fmt.Sprintf("%s = %.4g (paper %s, band %g..%g)", p.Name, p.Got, p.Paper, p.Lo, p.Hi)
	if !p.InBand() {
		s += " OUT OF BAND"
	}
	return s
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddPoint records a paper point measured by this experiment.
func (t *Table) AddPoint(name, paper string, lo, hi, got float64) {
	t.Points = append(t.Points, PaperPoint{Name: name, Paper: paper, Lo: lo, Hi: hi, Got: got})
}

// AddNote appends a caption note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		var line strings.Builder
		for i, c := range cells {
			if i > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", widths[i], c)
		}
		sb.WriteString(strings.TrimRight(line.String(), " ") + "\n")
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, p := range t.Points {
		sb.WriteString("paper: " + p.String() + "\n")
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

const gib = 1 << 30
