package bench

import (
	"strconv"
	"strings"
	"testing"
)

// The bench tests assert the paper's qualitative *shapes* on the one shared
// figures run: who wins, where the knees are. The numbers the paper states
// are paper points (TestPaperPoints); the exact values are the golden file.

func cellF(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tbl.Rows[row][col])
	}
	return v
}

func TestFig8Shape(t *testing.T) {
	tbl := sharedFigures(t).Fig8
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Mild decline with more hash keys; every strategy above HARP's 6 GiB/s.
	if cellF(t, tbl, 1, 1) < cellF(t, tbl, 3, 1) {
		t.Fatal("hashing four keys should not be faster than hashing one")
	}
	for i := range tbl.Rows {
		if bw := cellF(t, tbl, i, 1); bw <= 6 {
			t.Fatalf("%s: %.2f GiB/s, not above HARP's 6", tbl.Rows[i][0], bw)
		}
	}
	if !strings.Contains(tbl.String(), "radix") {
		t.Fatal("render")
	}
}

func TestFig9Shape(t *testing.T) {
	tbl := sharedFigures(t).Fig9
	byKey := map[string]float64{}
	for i, r := range tbl.Rows {
		byKey[r[0]+"/"+r[1]+"/"+r[2]] = cellF(t, tbl, i, 3)
	}
	// 64-row tiles slower than 128.
	if byKey["4/64/r"] >= byKey["4/128/r"] {
		t.Fatal("tile-size shape broken")
	}
	// Slight decay with more columns.
	if byKey["32/128/r"] >= byKey["2/128/r"] {
		t.Fatal("column-count shape broken")
	}
	if byKey["32/128/r"] < 0.8*byKey["2/128/r"] {
		t.Fatal("column decay too steep to be 'slight'")
	}
}

func TestFilterMicroShape(t *testing.T) {
	tbl := sharedFigures(t).Filter
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d (the operator run failed?): %v", len(tbl.Rows), tbl.Notes)
	}
	// "The operator executes close to the memory bandwidth": the 32-core
	// operator is DMS-bound, between the Fig 9 read rate and the channel peak.
	if bw := cellF(t, tbl, 2, 1); bw < 9 || bw > 12 {
		t.Fatalf("operator bandwidth = %.2f GiB/s, want DMS-bound (9..12)", bw)
	}
}

func TestFig10Shape(t *testing.T) {
	tbl := sharedFigures(t).Fig10
	get := func(fanout, tile string) float64 {
		for i, r := range tbl.Rows {
			if r[0] == fanout && r[1] == tile {
				return cellF(t, tbl, i, 2)
			}
		}
		t.Fatalf("no row %s/%s", fanout, tile)
		return 0
	}
	r32 := get("32", "256")
	// Flat to 64-way ("without significant performance drop").
	if r64 := get("64", "256"); r64 < 0.65*r32 {
		t.Fatalf("64-way dropped too much: %.0f vs %.0f", r64, r32)
	}
	// 256-way clearly degrades.
	if r256 := get("256", "256"); r256 >= 0.9*r32 {
		t.Fatalf("256-way should degrade: %.0f vs %.0f", r256, r32)
	}
	// Larger tiles help where DMEM headroom allows them (low fan-out);
	// at high fan-out the operator clamps the tile to fit the scratchpad.
	if get("4", "512") <= get("4", "64") {
		t.Fatal("larger tiles should help at low fan-out")
	}
	if get("128", "512") < get("128", "64") {
		t.Fatal("larger tiles must never hurt (clamped to DMEM)")
	}
}

func TestFig11Shape(t *testing.T) {
	tbl := sharedFigures(t).Fig11
	get := func(tile, buckets string) float64 {
		for i, r := range tbl.Rows {
			if r[0] == tile && r[1] == buckets {
				return cellF(t, tbl, i, 2)
			}
		}
		t.Fatal("missing row")
		return 0
	}
	// Buckets size has no impact.
	if b1, b2 := get("256", "512"), get("256", "8192"); b1 != b2 {
		t.Fatalf("buckets impact: %.1f vs %.1f", b1, b2)
	}
	// Larger tiles are monotonically better.
	prev := 0.0
	for _, tile := range []string{"64", "128", "256", "512", "1024"} {
		r := get(tile, "2048")
		if r <= prev {
			t.Fatalf("tile %s: %.1f Mrows/s/core, not above the smaller tile's %.1f", tile, r, prev)
		}
		prev = r
	}
}

func TestFig12Shape(t *testing.T) {
	tbl := sharedFigures(t).Fig12
	var minDPU, maxDPU = 1e18, 0.0
	for i, r := range tbl.Rows {
		_ = r
		v := cellF(t, tbl, i, 3)
		if v < minDPU {
			minDPU = v
		}
		if v > maxDPU {
			maxDPU = v
		}
	}
	if maxDPU/minDPU < 1.15 {
		t.Fatal("tile size should matter")
	}
}

func TestFig13Shape(t *testing.T) {
	tbl := sharedFigures(t).Fig13
	if slowdown := cellF(t, tbl, 1, 3); slowdown <= 1 {
		t.Fatalf("row-at-a-time = %.2fx vectorized, must be slower", slowdown)
	}
	// Branch misses must drop with vectorization.
	if cellF(t, tbl, 0, 2) >= cellF(t, tbl, 1, 2) {
		t.Fatal("vectorized execution must have fewer branch misses")
	}
}

func TestFig4Shape(t *testing.T) {
	tbl := sharedFigures(t).Fig4
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "1" {
		t.Fatalf("chosen formation has %s tasks, want 1", tbl.Rows[0][1])
	}
}
