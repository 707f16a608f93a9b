package ops

import (
	"fmt"
	"slices"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// preAggTable lays out chunks of 128 rows over columns k1, k2, v and f, each
// chunk's k1 running over its own range (clustered, negative at first):
//
//	chunk 0  k1 -20..19   40 values: the cap for one key; f passes every other row
//	chunk 1  k1  20..60   41 values: one over the cap, passes through
//	chunk 2  k1  61..70   f passes no row: the filter empties the unit
//	chunk 3  k1  71..80   f passes rows 40 and 100: a RID selection
//	chunk 4  k1  81..90   60 rows, f passes every row
//
// k2 runs over 0..2 in every chunk, so with two keys the cap is 120.
func preAggTable(t *testing.T) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "k1", Type: coltypes.Int()},
		storage.ColumnDef{Name: "k2", Type: coltypes.Int()},
		storage.ColumnDef{Name: "v", Type: coltypes.Int()},
		storage.ColumnDef{Name: "f", Type: coltypes.Int()},
	)
	b := storage.NewTableBuilder("t", schema, storage.BuildOptions{ChunkRows: 128})
	chunks := []struct {
		lo, span, rows int
		pass           func(i int) bool
	}{
		{-20, 40, 128, func(i int) bool { return i%2 == 0 }},
		{20, 41, 128, func(i int) bool { return i%3 != 0 }},
		{61, 10, 128, func(int) bool { return false }},
		{71, 10, 128, func(i int) bool { return i == 40 || i == 100 }},
		{81, 10, 60, func(int) bool { return true }},
	}
	for _, c := range chunks {
		for i := 0; i < c.rows; i++ {
			// Both ends of each range appear: the zone is the range.
			k1 := c.lo + i*c.span/c.rows
			if i == c.rows-1 {
				k1 = c.lo + c.span - 1
			}
			f := int64(0)
			if c.pass(i) {
				f = 1
			}
			row := []storage.Value{
				storage.IntValue(int64(k1)),
				storage.IntValue(int64(i % 3)),
				storage.IntValue(int64((i*37)%101 - 50)),
				storage.IntValue(f),
			}
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.MustBuild()
}

// preAggStates are the states the test aggregates: SUM, MIN, MAX, COUNT of
// v and COUNT(*). AVG lowers to the SUM and the COUNT(*) (qcomp.lowerAggs).
var preAggKinds = []AggKind{AggSum, AggMin, AggMax, AggCount, AggCountStar}

// groupedRows renders a grouped relation as sorted "keys|states" rows.
func groupedRows(rel *Relation) []string {
	out := make([]string, rel.Rows())
	for r := range out {
		s := ""
		for c := 0; c < rel.NumCols(); c++ {
			s += fmt.Sprint(rel.Get(r, c), "|")
		}
		out[r] = s
	}
	slices.Sort(out)
	return out
}

// TestPreAggMatchesGroupBy runs a filtered scan of preAggTable into the
// partitioned group-by twice: the rows as they are, and pre-aggregated per
// unit with the states merged. The groups must be equal for one key and for
// two, whether a unit's table is at the cap, a unit passes through, the
// filter leaves a bit-vector, a RID list or nothing, at any worker count.
func TestPreAggMatchesGroupBy(t *testing.T) {
	tbl := preAggTable(t)
	snap := tbl.Snapshot(storage.LatestSCN)
	for _, keys := range [][]int{{0}, {0, 1}} {
		for _, mode := range []qef.Mode{qef.ModeDPU, qef.ModeX86} {
			t.Run(fmt.Sprintf("keys=%d/%s", len(keys), mode), func(t *testing.T) {
				ctx := qef.NewContext(mode)
				filter := &ConstCmp{Col: 3, Op: plan.NE, Val: 0}
				// The raw rows: keys, v.
				var b ProgramBuilder
				specs := make([]AggSpec, len(preAggKinds))
				for i, k := range preAggKinds {
					specs[i] = AggSpec{Kind: k, Arg: b.Col(len(keys))}
				}
				proj := make([]ProjCol, 0, len(keys)+1)
				for _, k := range append(slices.Clone(keys), 2) {
					proj = append(proj, ProjCol{Keep: k})
				}
				rawCols := make([]Col, len(proj))
				raw := NewCollectSink(rawCols)
				if err := TableScan(ctx, snap, []int{0, 1, 2, 3}, 64, nil, func() qef.Operator {
					return &FilterOp{Pred: filter, Next: &ProjectOp{Cols: proj, Next: raw}}
				}); err != nil {
					t.Fatal(err)
				}
				scheme := PartScheme{Rounds: []int{4, 2}}
				want, err := GroupByPartitioned(ctx, raw.Relation(), allIdx(len(keys)), specs, b.Program(), scheme, 64)
				if err != nil {
					t.Fatal(err)
				}

				op := PreAggOp{Slots: 40 * (1 + 2*(len(keys)-1))}
				for _, k := range keys {
					op.Keys = append(op.Keys, PreAggKey{Col: k, Scan: k, Width: coltypes.W1})
				}
				var m ProgramBuilder
				merge := make([]AggSpec, len(preAggKinds))
				for i, k := range preAggKinds {
					op.States = append(op.States, PreAggState{Kind: k, Col: 2})
					merge[i] = AggSpec{Kind: k.Merge(), Arg: m.Col(len(keys) + i)}
				}
				pre := NewCollectSink(make([]Col, len(keys)+len(preAggKinds)))
				if err := TableScan(ctx, snap, []int{0, 1, 2, 3}, 64, nil, func() qef.Operator {
					p := op
					p.Next = pre
					return &FilterOp{Pred: filter, Next: &p}
				}); err != nil {
					t.Fatal(err)
				}
				collected := pre.Relation()
				got, err := GroupByPartitioned(ctx, collected, allIdx(len(keys)), merge, m.Program(), scheme, 64)
				if err != nil {
					t.Fatal(err)
				}
				if w, g := groupedRows(want), groupedRows(got); !slices.Equal(w, g) {
					t.Fatalf("pre-aggregated groups differ:\nwant %v\ngot  %v", w, g)
				}
				// Chunk 0's 64 rows fill its 40 slots with one key, and 64 of
				// its 120 with two; chunk 1 passes its 85 rows through; chunk
				// 3's 2 rows have 2 keys; chunk 4's 60 rows have 10 values of
				// k1 and 30 of (k1, k2).
				occupied := map[int]int{1: 40 + 85 + 2 + 10, 2: 64 + 85 + 2 + 30}[len(keys)]
				if collected.Rows() != occupied {
					t.Errorf("collected %d rows, want %d", collected.Rows(), occupied)
				}
			})
		}
	}
}

// TestPreAggBillsEachUnit pins the exact bill of one unit of each kind, as
// the cycles a scan through the step bills beyond the same scan without it:
// per tile the operator overhead, per selected row PreAggRowCost (plus
// PreAggRIDCost when the tile is sparse), and per table PreAggSlotCost over
// the unit's slots. A unit that passes through bills nothing.
func TestPreAggBillsEachUnit(t *testing.T) {
	tbl := preAggTable(t)
	snap := tbl.Snapshot(storage.LatestSCN)
	op := PreAggOp{
		Keys:   []PreAggKey{{Col: 0, Scan: 0, Width: coltypes.W1}},
		States: []PreAggState{{Kind: AggSum, Col: 2}, {Kind: AggCountStar}},
		Slots:  40,
	}
	folds, stars := op.Folds()
	perRow := primitives.PreAggRowCost(1, folds, stars)
	// One 128-row tile per chunk; chunk 2 leaves the filter empty.
	wants := []struct {
		name    string
		filter  bool
		chunk   int
		cycles  dpu.Cycles
		emitted int
	}{
		{"dense", false, 0, 30 + dpu.Cycles(128*perRow) + dpu.Cycles(primitives.PreAggSlotCost(40, 1, 2)), 40},
		{"bitvector", true, 0, 30 + dpu.Cycles(64*(perRow+primitives.PreAggRIDCost)) + dpu.Cycles(primitives.PreAggSlotCost(40, 1, 2)), 40},
		{"rids", true, 3, 30 + dpu.Cycles(2*(perRow+primitives.PreAggRIDCost)) + dpu.Cycles(primitives.PreAggSlotCost(10, 1, 2)), 2},
		{"passthrough", false, 1, 0, 128},
		{"empty", true, 2, 0, 0},
	}
	for _, w := range wants {
		t.Run(w.name, func(t *testing.T) {
			// Zone-prune every chunk but the one under test.
			prune := &Between{Col: 0, Lo: map[int]int64{0: -20, 1: 20, 2: 61, 3: 71}[w.chunk], Hi: map[int]int64{0: 19, 1: 60, 2: 70, 3: 80}[w.chunk]}
			run := func(withStep bool) (dpu.Cycles, int) {
				ctx := qef.NewContext(qef.ModeDPU)
				sink := NewCollectSink(make([]Col, 3))
				err := TableScan(ctx, snap, []int{0, 1, 2, 3}, 128, prune, func() qef.Operator {
					var head qef.Operator = sink
					if withStep {
						p := op
						p.Next = sink
						head = &p
					}
					if w.filter {
						head = &FilterOp{Pred: &ConstCmp{Col: 3, Op: plan.NE, Val: 0}, Next: head}
					}
					return head
				})
				if err != nil {
					t.Fatal(err)
				}
				return dpu.Cycles(ctx.Usage().Cycles()), sink.Relation().Rows()
			}
			without, _ := run(false)
			with, emitted := run(true)
			if got := with - without; got != w.cycles {
				t.Errorf("the step billed %d cycles, want %d", got, w.cycles)
			}
			if emitted != w.emitted {
				t.Errorf("the step emitted %d rows, want %d", emitted, w.emitted)
			}
		})
	}
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
