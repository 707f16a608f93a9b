package dms

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"rapid/internal/coltypes"
)

func newEngine() *Engine { return NewEngine(DefaultModel()) }

func mkCols(n, cols int, gen func(row, col int) int64) []coltypes.Data {
	out := make([]coltypes.Data, cols)
	for c := range out {
		d := coltypes.New(coltypes.W4, n)
		for i := 0; i < n; i++ {
			d.Set(i, gen(i, c))
		}
		out[c] = d
	}
	return out
}

// TestTimingsMatchTheCapturedModel holds every timing call to the values the
// engine billed when it still moved the data (Read into DMEM buffers, Write
// back to DRAM, a computed hash vector, a computed CID vector), captured in
// testdata/timings.golden: widths 1/2/4/8, 1/4/16 columns, 0/1/64/1000 rows,
// all four partitioning strategies, and the per-direction ledger after each
// shape. Seconds print exactly, so one ulp of drift fails.
func TestTimingsMatchTheCapturedModel(t *testing.T) {
	want, err := os.ReadFile("testdata/timings.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, w := range []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8} {
		for _, nc := range []int{1, 4, 16} {
			for _, rows := range []int{0, 1, 64, 1000} {
				cols := make([]coltypes.Data, nc)
				for c := range cols {
					cols[c] = coltypes.New(w, rows)
				}
				keys := make([]int, min(nc, 4))
				for k := range keys {
					keys[k] = k
				}
				e := newEngine()
				line := func(op string, tm Timing) { fmt.Fprintf(&b, "w%d c%d r%d %s %+v\n", w, nc, rows, op, tm) }
				line("read", e.Read(cols, 0, rows))
				line("write", e.WriteTiming(nc, rows, w.Bytes()))
				line("stream", e.StreamWrite(rows*nc*w.Bytes()))
				line("hashvector", e.HashTiming(rows, cols, keys))
				for _, spec := range []PartitionSpec{
					{Strategy: Radix, Fanout: 32, KeyCols: []int{0}},
					{Strategy: Hash, Fanout: 32, KeyCols: keys},
					{Strategy: Range, Fanout: 32, KeyCols: []int{0}},
					{Strategy: RoundRobin, Fanout: 32},
				} {
					tm, err := e.PartitionTiming(cols, spec)
					if err != nil {
						t.Fatal(err)
					}
					line(spec.Strategy.String(), tm)
				}
				rd, wr := e.TotalsByDir()
				fmt.Fprintf(&b, "w%d c%d r%d totals %+v %+v\n", w, nc, rows, rd, wr)
			}
		}
	}
	if b.String() == string(want) {
		return
	}
	g, w := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d lines, want %d", len(g), len(w))
}

func TestFig9ShapeBandwidth(t *testing.T) {
	// The calibration targets of Fig 9: 128-row tiles of 4x4-byte columns
	// read at >= 9 GiB/s; 64-row tiles are slower; more columns decay
	// slightly.
	m := DefaultModel()
	const gib = 1 << 30
	bw := func(rows, cols int) float64 {
		tm := m.readTime(rows, cols, coltypes.W4)
		return float64(tm.Bytes) / tm.Seconds / gib
	}
	if b := bw(128, 4); b < 9.0 {
		t.Fatalf("128-row 4-col read = %.2f GiB/s, want >= 9", b)
	}
	if bw(64, 4) >= bw(128, 4) {
		t.Fatal("64-row tiles should be slower than 128")
	}
	if bw(128, 32) >= bw(128, 2) {
		t.Fatal("32 columns should be slower than 2")
	}
	// Decay must be slight (paper: "a slight performance decrease").
	if bw(128, 32) < 0.8*bw(128, 2) {
		t.Fatalf("column decay too steep: %.2f vs %.2f", bw(128, 32), bw(128, 2))
	}
}

func TestFig8ShapePartitionBandwidth(t *testing.T) {
	// 32-way HW partitioning of 4x4-byte columns lands around 9.3 GiB/s
	// for every strategy.
	e := newEngine()
	const n = 1 << 20
	cols := mkCols(n, 4, func(r, c int) int64 { return int64(r) })
	const gib = 1 << 30
	specs := []PartitionSpec{
		{Strategy: Radix, Fanout: 32, KeyCols: []int{0}},
		{Strategy: Hash, Fanout: 32, KeyCols: []int{0}},
		{Strategy: Hash, Fanout: 32, KeyCols: []int{0, 1}},
		{Strategy: Hash, Fanout: 32, KeyCols: []int{0, 1, 2, 3}},
		{Strategy: Range, Fanout: 32, KeyCols: []int{0}},
	}
	for _, spec := range specs {
		tm, err := e.PartitionTiming(cols, spec)
		if err != nil {
			t.Fatalf("%v: %v", spec.Strategy, err)
		}
		bw := float64(tm.Bytes) / tm.Seconds / gib
		if bw < 8.8 || bw > 10.0 {
			t.Fatalf("%v %d keys: %.2f GiB/s, want ~9.3", spec.Strategy, len(spec.KeyCols), bw)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []PartitionSpec{
		{Strategy: Radix, Fanout: 0, KeyCols: []int{0}},
		{Strategy: Radix, Fanout: 64, KeyCols: []int{0}},           // beyond hardware
		{Strategy: Radix, Fanout: 12, KeyCols: []int{0}},           // not power of 2
		{Strategy: Radix, Fanout: 8, KeyCols: []int{0, 1}},         // too many keys
		{Strategy: Hash, Fanout: 8, KeyCols: nil},                  // no keys
		{Strategy: Hash, Fanout: 8, KeyCols: []int{0, 1, 2, 3, 0}}, // >4 keys
		{Strategy: Hash, Fanout: 8, KeyCols: []int{5}},             // col out of range
		{Strategy: Range, Fanout: 4, KeyCols: []int{0, 1}},         // too many keys
		{Strategy: RoundRobin, Fanout: 33},
		{Strategy: Strategy(99), Fanout: 4},
	}
	for i, s := range bad {
		if err := s.Validate(2); err == nil {
			t.Errorf("case %d (%v) should fail validation", i, s.Strategy)
		}
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{Radix: "radix", Hash: "hash", Range: "range", RoundRobin: "round-robin"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
