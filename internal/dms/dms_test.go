package dms

import (
	"math/rand"
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

func TestReadMovesData(t *testing.T) {
	e := newEngine()
	src := mkCols(100, 3, func(r, c int) int64 { return int64(r*10 + c) })
	dst := []coltypes.Data{
		coltypes.New(coltypes.W4, 20),
		coltypes.New(coltypes.W4, 20),
		coltypes.New(coltypes.W4, 20),
	}
	tm := e.Read(src, 40, 60, dst)
	for c := 0; c < 3; c++ {
		for i := 0; i < 20; i++ {
			if got := dst[c].Get(i); got != int64((40+i)*10+c) {
				t.Fatalf("col %d row %d = %d", c, i, got)
			}
		}
	}
	if tm.Bytes != 3*20*4 {
		t.Fatalf("Bytes = %d", tm.Bytes)
	}
	if tm.Descriptors != 3 {
		t.Fatalf("Descriptors = %d", tm.Descriptors)
	}
	if e.Totals().Bytes != tm.Bytes {
		t.Fatal("totals not accumulated")
	}
}

// TestReadPartialTileDoesNotAllocate: the tail tile of a scan reads into
// shortened views of the DMEM buffers; taking those views and moving the
// rows costs no heap allocation.
func TestReadPartialTileDoesNotAllocate(t *testing.T) {
	e := newEngine()
	src := mkCols(1000, 3, func(r, c int) int64 { return int64(r + c) })
	bufs := mkCols(256, 3, func(r, c int) int64 { return 0 })
	views := make([]coltypes.Data, len(bufs))
	const lo, hi = 768, 1000 // 232 of 256 rows
	allocs := testing.AllocsPerRun(100, func() {
		for i := range bufs {
			views[i] = bufs[i].Slice(0, hi-lo)
		}
		e.Read(src, lo, hi, views)
	})
	if allocs != 0 {
		t.Fatalf("partial-tile Read allocates %.0f times, want 0", allocs)
	}
	if views[2].Get(231) != 999+2 {
		t.Fatalf("partial-tile Read moved the wrong rows: last = %d", views[2].Get(231))
	}
}

func TestWriteMovesData(t *testing.T) {
	e := newEngine()
	dst := mkCols(50, 2, func(r, c int) int64 { return 0 })
	src := mkCols(10, 2, func(r, c int) int64 { return int64(100 + r + c) })
	tm := e.Write(dst, 5, src, 10)
	for c := 0; c < 2; c++ {
		for i := 0; i < 10; i++ {
			if dst[c].Get(5+i) != int64(100+i+c) {
				t.Fatalf("write landed wrong at col %d row %d", c, i)
			}
		}
	}
	if dst[0].Get(4) != 0 || dst[0].Get(15) != 0 {
		t.Fatal("write out of bounds")
	}
	// Write pays bus turnaround on top of read-shaped chunk cost.
	rd := e.model.readTime(10, 2, coltypes.W4)
	if tm.Seconds <= rd.Seconds {
		t.Fatal("write should cost more than read of same size")
	}
}

// TestBillOnlyWritesMatchTheModel pins the two write forms that move no data:
// WriteTiming bills exactly what Write bills for the same shape, StreamWrite
// bills its closed form, and all of it lands in the write half of the
// engine's ledger.
func TestBillOnlyWritesMatchTheModel(t *testing.T) {
	e := newEngine()
	dst := mkCols(50, 3, func(r, c int) int64 { return 0 })
	src := mkCols(10, 3, func(r, c int) int64 { return int64(r) })
	w := e.Write(dst, 0, src, 10)
	if wt := e.WriteTiming(3, 10, 4); wt != w {
		t.Fatalf("WriteTiming = %+v, Write of the same shape = %+v", wt, w)
	}
	m := e.model
	sw := e.StreamWrite(1000)
	wantSec := (m.DescriptorIssueNs+m.PageSwitchBaseNs+m.WriteTurnaroundNs)*1e-9 + 1000/m.PeakBytesPerSec
	if sw.Seconds != wantSec || sw.Bytes != 1000 || sw.Descriptors != 1 || !sw.Write {
		t.Fatalf("StreamWrite = %+v, want %g s / 1000 B / 1 descriptor", sw, wantSec)
	}
	rd, wr := e.TotalsByDir()
	if rd != (Timing{}) {
		t.Fatalf("writes reached the read ledger: %+v", rd)
	}
	if wr.Bytes != 2*w.Bytes+1000 || wr.Descriptors != 7 || wr.Seconds != w.Seconds+w.Seconds+sw.Seconds {
		t.Fatalf("write ledger = %+v", wr)
	}
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
		{Strategy: Range, Fanout: 32, KeyCols: []int{0}, Bounds: uniformBounds(32, n)},
	}
	for _, spec := range specs {
		_, tm, err := e.PartitionIDs(cols, spec)
		if err != nil {
			t.Fatalf("%v: %v", spec.Strategy, err)
		}
		bw := float64(tm.Bytes) / tm.Seconds / gib
		if bw < 8.8 || bw > 10.0 {
			t.Fatalf("%v %d keys: %.2f GiB/s, want ~9.3", spec.Strategy, len(spec.KeyCols), bw)
		}
	}
}

func uniformBounds(fanout int, card int) []int64 {
	b := make([]int64, fanout-1)
	for i := range b {
		b[i] = int64((i + 1) * card / fanout)
	}
	return b
}

// countIDs returns the rows per partition of a PartitionIDs vector.
func countIDs(ids []uint8, fanout int) []int {
	rows := make([]int, fanout)
	for _, id := range ids {
		rows[id]++
	}
	return rows
}

func TestRadixPartitioning(t *testing.T) {
	e := newEngine()
	cols := mkCols(1000, 2, func(r, c int) int64 { return int64(r) })
	ids, _, err := e.PartitionIDs(cols, PartitionSpec{Strategy: Radix, Fanout: 8, KeyCols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1000 {
		t.Fatalf("rows lost: %d ids", len(ids))
	}
	for i, p := range ids {
		if key := cols[0].Get(i); key&7 != int64(p) {
			t.Fatalf("row with key %d in partition %d", key, p)
		}
	}
}

func TestHashPartitioningCompleteAndDeterministic(t *testing.T) {
	e := newEngine()
	rng := rand.New(rand.NewSource(3))
	cols := mkCols(5000, 1, func(r, c int) int64 { return int64(rng.Intn(100000)) })
	ids1, _, err := e.PartitionIDs(cols, PartitionSpec{Strategy: Hash, Fanout: 16, KeyCols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	ids2, _, _ := e.PartitionIDs(cols, PartitionSpec{Strategy: Hash, Fanout: 16, KeyCols: []int{0}})
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatal("hash partitioning not deterministic")
		}
		if ids1[i] >= 16 {
			t.Fatalf("partition id %d out of fan-out", ids1[i])
		}
	}
	// Same key -> same partition.
	seen := map[int64]uint8{}
	for i := range ids1 {
		k := cols[0].Get(i)
		if p, ok := seen[k]; ok && p != ids1[i] {
			t.Fatalf("key %d in two partitions", k)
		}
		seen[k] = ids1[i]
	}
}

func TestHashPartitioningBalance(t *testing.T) {
	e := newEngine()
	const n = 32000
	cols := mkCols(n, 1, func(r, c int) int64 { return int64(r) })
	ids, _, err := e.PartitionIDs(cols, PartitionSpec{Strategy: Hash, Fanout: 32, KeyCols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	want := n / 32
	for p, rows := range countIDs(ids, 32) {
		if rows < want*7/10 || rows > want*13/10 {
			t.Fatalf("partition %d has %d rows, want ~%d", p, rows, want)
		}
	}
}

func TestRangePartitioning(t *testing.T) {
	e := newEngine()
	cols := mkCols(100, 1, func(r, c int) int64 { return int64(r) })
	spec := PartitionSpec{Strategy: Range, Fanout: 4, KeyCols: []int{0}, Bounds: []int64{25, 50, 75}}
	ids, _, err := e.PartitionIDs(cols, spec)
	if err != nil {
		t.Fatal(err)
	}
	for p, rows := range countIDs(ids, 4) {
		if rows != 25 {
			t.Fatalf("range partition %d has %d rows, want 25", p, rows)
		}
	}
	// Boundary value: key 25 goes to partition 1 (bounds are exclusive
	// upper limits).
	if ids[25] != 1 || ids[24] != 0 || ids[99] != 3 {
		t.Fatalf("boundary routing wrong: ids[24..25]=%d,%d ids[99]=%d", ids[24], ids[25], ids[99])
	}
}

func TestRoundRobinSkewReplication(t *testing.T) {
	e := newEngine()
	// Key 7 is a heavy hitter: round-robin ignores the key, so its rows
	// land evenly on every target.
	n := 1000
	cols := mkCols(n, 1, func(r, c int) int64 {
		if r%3 == 0 {
			return 7
		}
		return int64(r + 1000) // disjoint from the heavy-hitter key
	})
	spec := PartitionSpec{
		Strategy: RoundRobin,
		Fanout:   8,
		KeyCols:  []int{0},
	}
	ids, _, err := e.PartitionIDs(cols, spec)
	if err != nil {
		t.Fatal(err)
	}
	heavyCounts := make([]int, 8)
	for i, id := range ids {
		if cols[0].Get(i) == 7 {
			heavyCounts[id]++
		}
	}
	// 334 heavy rows (every third row) over 8 targets: 41 or 42 each.
	for p, c := range heavyCounts {
		if c != 41 && c != 42 {
			t.Fatalf("heavy rows at target %d = %d, want 41 or 42", p, c)
		}
	}
}

func TestHashVectorMatchesKernelHash(t *testing.T) {
	e := newEngine()
	cols := mkCols(256, 2, func(r, c int) int64 { return int64(r * (c + 1)) })
	hv, tm := e.HashVector(cols, []int{0, 1})
	if len(hv) != 256 {
		t.Fatalf("len = %d", len(hv))
	}
	if tm.Seconds <= 0 {
		t.Fatal("hash vector must take time")
	}
	hv2, _ := e.HashVector(cols, []int{0, 1})
	for i := range hv {
		if hv[i] != hv2[i] {
			t.Fatal("hash vector not deterministic")
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []PartitionSpec{
		{Strategy: Radix, Fanout: 0, KeyCols: []int{0}},
		{Strategy: Radix, Fanout: 64, KeyCols: []int{0}},                       // beyond hardware
		{Strategy: Radix, Fanout: 12, KeyCols: []int{0}},                       // not power of 2
		{Strategy: Radix, Fanout: 8, KeyCols: []int{0, 1}},                     // too many keys
		{Strategy: Hash, Fanout: 8, KeyCols: nil},                              // no keys
		{Strategy: Hash, Fanout: 8, KeyCols: []int{0, 1, 2, 3, 0}},             // >4 keys
		{Strategy: Hash, Fanout: 8, KeyCols: []int{5}},                         // col out of range
		{Strategy: Range, Fanout: 4, KeyCols: []int{0}, Bounds: []int64{1}},    // wrong bound count
		{Strategy: Range, Fanout: 3, KeyCols: []int{0}, Bounds: []int64{5, 1}}, // unsorted
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
