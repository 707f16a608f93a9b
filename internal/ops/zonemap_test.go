package ops

import (
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// zonesOf serves fixed zones per column; a missing entry means "no zone".
func zonesOf(m map[int]storage.Zone) func(int) (storage.Zone, bool) {
	return func(c int) (storage.Zone, bool) {
		z, ok := m[c]
		return z, ok
	}
}

func TestZoneRejectConstCmp(t *testing.T) {
	z := zonesOf(map[int]storage.Zone{0: {Min: 10, Max: 20}})
	cases := []struct {
		op   plan.CmpOp
		val  int64
		want bool
	}{
		{plan.EQ, 15, false}, {plan.EQ, 9, true}, {plan.EQ, 21, true},
		{plan.EQ, 10, false}, {plan.EQ, 20, false},
		{plan.LT, 10, true}, {plan.LT, 11, false},
		{plan.LE, 9, true}, {plan.LE, 10, false},
		{plan.GT, 20, true}, {plan.GT, 19, false},
		{plan.GE, 21, true}, {plan.GE, 20, false},
		{plan.NE, 15, false},
	}
	for _, c := range cases {
		got := ZoneReject(&ConstCmp{Col: 0, Op: c.op, Val: c.val}, z)
		if got != c.want {
			t.Errorf("op=%v val=%d: reject=%v, want %v", c.op, c.val, got, c.want)
		}
	}
	// Single-point zone: NE can reject.
	pt := zonesOf(map[int]storage.Zone{0: {Min: 7, Max: 7}})
	if !ZoneReject(&ConstCmp{Col: 0, Op: plan.NE, Val: 7}, pt) {
		t.Error("NE over single-point zone must reject")
	}
	// Missing zone never rejects.
	if ZoneReject(&ConstCmp{Col: 1, Op: plan.EQ, Val: 0}, z) {
		t.Error("missing zone must not reject")
	}
}

func TestZoneRejectBetweenAndInSet(t *testing.T) {
	z := zonesOf(map[int]storage.Zone{0: {Min: 10, Max: 20}})
	if !ZoneReject(&Between{Col: 0, Lo: 21, Hi: 30}, z) ||
		!ZoneReject(&Between{Col: 0, Lo: 0, Hi: 9}, z) {
		t.Error("disjoint BETWEEN must reject")
	}
	if ZoneReject(&Between{Col: 0, Lo: 20, Hi: 25}, z) ||
		ZoneReject(&Between{Col: 0, Lo: 5, Hi: 10}, z) {
		t.Error("touching BETWEEN must not reject")
	}

	set := bits.NewVector(32)
	set.Set(5)
	set.Set(25)
	if !ZoneReject(&InSet{Col: 0, Set: set}, zonesOf(map[int]storage.Zone{0: {Min: 10, Max: 20}})) {
		t.Error("IN-set with no member inside the zone must reject")
	}
	if ZoneReject(&InSet{Col: 0, Set: set}, zonesOf(map[int]storage.Zone{0: {Min: 20, Max: 30}})) {
		t.Error("IN-set with member 25 inside must not reject")
	}
	if ZoneReject(&InSet{Col: 0, Set: nil}, z) {
		t.Error("nil set must not reject")
	}
	// Zone entirely past the set's universe.
	if !ZoneReject(&InSet{Col: 0, Set: set}, zonesOf(map[int]storage.Zone{0: {Min: 40, Max: 50}})) {
		t.Error("zone past set length must reject")
	}
}

func TestZoneRejectColCmpAndBoolean(t *testing.T) {
	z := zonesOf(map[int]storage.Zone{
		0: {Min: 0, Max: 10},
		1: {Min: 10, Max: 20},
		2: {Min: 30, Max: 40},
	})
	if !ZoneReject(&ColCmp{A: 1, B: 0, Op: plan.LT}, z) { // min(a)=10 >= max(b)=10
		t.Error("a<b with min(a)>=max(b) must reject")
	}
	if ZoneReject(&ColCmp{A: 0, B: 1, Op: plan.LE}, z) {
		t.Error("overlapping a<=b must not reject")
	}
	if !ZoneReject(&ColCmp{A: 0, B: 2, Op: plan.EQ}, z) {
		t.Error("disjoint a=b must reject")
	}

	rejecting := &ConstCmp{Col: 0, Op: plan.GT, Val: 99}
	passing := &ConstCmp{Col: 0, Op: plan.GE, Val: 0}
	if !ZoneReject(&And{Preds: []Predicate{passing, rejecting}}, z) {
		t.Error("AND rejects when any conjunct rejects")
	}
	if ZoneReject(&Or{Preds: []Predicate{passing, rejecting}}, z) {
		t.Error("OR must not reject while any branch can match")
	}
	if !ZoneReject(&Or{Preds: []Predicate{rejecting, rejecting}}, z) {
		t.Error("OR rejects when every branch rejects")
	}
	if !ZoneReject(&Not{P: TruePred{}}, z) {
		t.Error("NOT TRUE (empty IN list) must reject")
	}
	if ZoneReject(&Not{P: rejecting}, z) {
		t.Error("NOT over a rejecting branch must not reject")
	}
	if ZoneReject(TruePred{}, z) {
		t.Error("TRUE must not reject")
	}
}

// TestPrunedTilesAreUnbilled proves a zone-skipped tile is free: the same
// scan with a prune predicate must bill strictly fewer DPU cycles and DMS
// bytes than without, return the identical rows, and keep the
// pruned+scanned == total accounting. Skipping happens before work-unit
// creation, so a pruned tile never touches DMEM admission either.
func TestPrunedTilesAreUnbilled(t *testing.T) {
	tbl := buildTestTable(t, 5000) // k = 0..4999, clustered; ChunkRows 512
	pred := &ConstCmp{Col: 0, Op: plan.GE, Val: 4500}

	run := func(prune Predicate, noPrune bool) (*Relation, int64, int64, *qef.Context) {
		ctx := qef.NewContext(qef.ModeDPU)
		ctx.NoPrune = noPrune
		sink := NewCollectSink([]Col{{Name: "k", Type: coltypes.Int()}})
		chain := func() qef.Operator {
			return &FilterOp{Pred: pred, Next: sink}
		}
		if err := TableScan(ctx, tbl.Snapshot(storage.LatestSCN), []int{0}, 512, prune, chain); err != nil {
			t.Fatal(err)
		}
		u := ctx.Usage()
		return sink.Relation(), u.Cycles(), u.Read.Bytes + u.Write.Bytes, ctx
	}

	full, fullCycles, fullBytes, _ := run(nil, false)
	pruned, prunedCycles, prunedBytes, pctx := run(pred, false)

	if full.Rows() != 500 || pruned.Rows() != full.Rows() {
		t.Fatalf("rows: full=%d pruned=%d, want 500", full.Rows(), pruned.Rows())
	}
	if got := pctx.Usage().TilesPruned; got != 8 { // chunks 0..7 of 10 hold k < 4096
		t.Fatalf("tiles pruned = %d, want 8", got)
	}
	if prunedCycles >= fullCycles {
		t.Fatalf("pruned scan billed %d cycles, full scan %d — skipped tiles are not free", prunedCycles, fullCycles)
	}
	if prunedBytes >= fullBytes {
		t.Fatalf("pruned scan billed %d DMS bytes, full scan %d — skipped tiles are not free", prunedBytes, fullBytes)
	}

	// NoPrune must force the full-billing path even with a prune predicate.
	_, offCycles, offBytes, offCtx := run(pred, true)
	if offCtx.Usage().TilesPruned != 0 {
		t.Fatal("NoPrune still pruned tiles")
	}
	if offCycles != fullCycles || offBytes != fullBytes {
		t.Fatalf("NoPrune billing differs from unpruned scan: cycles %d vs %d, bytes %d vs %d",
			offCycles, fullCycles, offBytes, fullBytes)
	}
}
