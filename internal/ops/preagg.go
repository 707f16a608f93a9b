package ops

import (
	"fmt"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/primitives"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// PreAggKey is one group key of a PreAggOp.
type PreAggKey struct {
	Col   int            // the key's column in the tile
	Scan  int            // the scanned column whose zone bounds it (TaskCtx.Zone); -1: none
	Width coltypes.Width // the width the key leaves the table in
}

// PreAggState is one aggregate state a PreAggOp keeps per group: a state of
// qcomp's lowering, which the partitioned group-by above merges — SUM over
// SUM, COUNT and COUNT(*) states, MIN over MIN, MAX over MAX.
type PreAggState struct {
	Kind AggKind
	Col  int // the tile column the state folds; unused by COUNT(*)
}

// PreAggOp pre-aggregates each unit of a table scan in front of its Collect
// (§5.4's high-NDV group-by, with the input's clustering used first). A
// unit's chunk bounds every key by its zone map, so the unit's rows fold
// into a DMEM table indexed directly by key − zone.Min (a mixed-radix index
// over several keys): the key is the slot, and the table holds the states
// only. When the unit's last tile has passed (EndUnit), the occupied slots
// leave as (keys, states) rows, under the unit's Seq, so the collected
// relation stays in scan order.
//
// A unit whose keys have no zone (an updated column, the insert delta
// chunk), whose zone does not fit a key's Width, or whose ranges multiply to
// more than Slots passes through: each selected row leaves as its own
// singleton states, the argument as SUM/MIN/MAX and 1 as a count, a header
// move that bills nothing. A deleted row keeps its chunk's zone a superset,
// so the bound still holds.
//
// The table is read and written only at selected rows: a sparse tile's RID
// read bills PreAggRIDCost a row, as ScalarAggOp's gather does.
type PreAggOp struct {
	Keys   []PreAggKey
	States []PreAggState
	Slots  int // the table's capacity
	Next   qef.Operator

	// Per core: the table, state s of slot i at table[s*Slots+i]; the
	// occupied slots; and the running unit's layout — each key's zone
	// minimum and range, and its slots (0: the unit passes through).
	table       []int64
	occWords    []uint64
	occ         bits.Vector
	base, radix []int64
	span        int
	inUnit      bool
	ones        coltypes.Data // the count states of a passed-through row
}

// DMEMSize: the table's states and occupancy bits, the key vectors the
// emitted rows are decoded into, and, when a state counts, the constant
// vector of ones a passed-through tile reads.
func (p *PreAggOp) DMEMSize(tileRows int) int {
	perSlot := 8 * len(p.States)
	for _, k := range p.Keys {
		perSlot += k.Width.Bytes()
	}
	size := p.Slots*perSlot + bits.VectorSizeBytes(p.Slots)
	for _, s := range p.States {
		if s.Kind.counts() {
			return size + tileRows
		}
	}
	return size
}

// UnitSlots returns the slots the table of a unit takes whose chunk has the
// zone maps zone (TaskCtx.Zone): the product of the keys' ranges, or 0 when
// the unit passes through. The compiler arms the step by the same rule.
func (p *PreAggOp) UnitSlots(zone func(int) (storage.Zone, bool)) int {
	return p.layout(zone, nil, nil)
}

// layout is UnitSlots, writing each key's zone minimum and range into base
// and radix when they are not nil.
func (p *PreAggOp) layout(zone func(int) (storage.Zone, bool), base, radix []int64) int {
	if zone == nil {
		return 0
	}
	span := 1
	for k, key := range p.Keys {
		if key.Scan < 0 {
			return 0
		}
		z, ok := zone(key.Scan)
		// Max − Min wraps to the true difference as a uint64 when Max >= Min.
		if !ok || z.Max < z.Min || z.Min < key.Width.MinInt() || z.Max > key.Width.MaxInt() ||
			uint64(z.Max-z.Min) >= uint64(p.Slots) {
			return 0
		}
		r := int(z.Max-z.Min) + 1
		if span *= r; span > p.Slots {
			return 0
		}
		if base != nil {
			base[k], radix[k] = z.Min, int64(r)
		}
	}
	return span
}

func (p *PreAggOp) Open(tc *qef.TaskCtx) error {
	p.table = make([]int64, p.Slots*len(p.States))
	p.occWords = make([]uint64, bits.VectorSizeBytes(p.Slots)/8)
	p.base, p.radix = make([]int64, len(p.Keys)), make([]int64, len(p.Keys))
	return p.Next.Open(tc)
}

func (p *PreAggOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	if !p.inUnit {
		p.beginUnit(tc)
	}
	if p.span == 0 {
		return p.passThrough(tc, t)
	}
	primitives.ChargeTileOverhead(tc.Core)
	blocks := rowBlocks{t: t}
	for rows, ok := blocks.next(); ok; rows, ok = blocks.next() {
		if err := p.foldBlock(t, rows); err != nil {
			return err
		}
	}
	if c := tc.Core; c != nil {
		folds, stars := p.Folds()
		cy := primitives.PreAggRowCost(len(p.Keys), folds, stars)
		if !t.Dense() {
			cy += primitives.PreAggRIDCost
		}
		c.Charge(dpu.Cycles(cy * float64(t.QualifyingRows())))
	}
	return nil
}

// beginUnit lays the table out for the running unit on its first tile, and
// has the unit's source call EndUnit after its last.
func (p *PreAggOp) beginUnit(tc *qef.TaskCtx) {
	p.inUnit = true
	tc.AtUnitEnd(p)
	p.span = p.layout(tc.Zone, p.base, p.radix)
	if p.span == 0 {
		return
	}
	for s, st := range p.States {
		st.Kind.newAcc(p.table[s*p.Slots : s*p.Slots+p.span])
	}
	p.occ.Over(p.occWords, p.span)
}

// Folds returns how many states read a value and how many are COUNT(*).
func (p *PreAggOp) Folds() (folds, stars int) {
	for _, s := range p.States {
		if s.Kind == AggCountStar {
			stars++
		} else {
			folds++
		}
	}
	return folds, stars
}

// foldBlock folds the tile's rows (at most 64) into the table: their group
// ids, the slots, are computed once from the keys, each read through its
// width's own loop (widenGather), and then each state accumulates its
// argument, read the same way, at those slots. Produce bills the folds.
func (p *PreAggOp) foldBlock(t *qef.Tile, rows []uint32) error {
	var slots [64]uint32
	var vals [64]int64
	sl, v := slots[:len(rows)], vals[:len(rows)]
	for k, key := range p.Keys {
		widenGather(v, t.Cols[key.Col], rows)
		base, radix := p.base[k], p.radix[k]
		for i, x := range v {
			off := x - base
			if uint64(off) >= uint64(radix) {
				return fmt.Errorf("ops: pre-aggregation key %d is outside its chunk's zone", k)
			}
			sl[i] = sl[i]*uint32(radix) + uint32(off)
		}
	}
	for _, slot := range sl {
		p.occWords[slot>>6] |= 1 << (slot & 63)
	}
	for s, st := range p.States {
		var arg []int64
		if !st.Kind.counts() { // the engine has no NULLs
			widenGather(v, t.Cols[st.Col], rows)
			arg = v
		}
		st.Kind.accumulate(nil, p.table[s*p.Slots:s*p.Slots+p.span], sl, arg)
	}
	return nil
}

// passThrough emits the tile's selected rows as singleton states: the keys,
// then each state's argument, or ones for a count.
func (p *PreAggOp) passThrough(tc *qef.TaskCtx, t *qef.Tile) error {
	nk := len(p.Keys)
	cols := tc.Pool.Headers(nk + len(p.States))
	for k, key := range p.Keys {
		cols[k] = t.Cols[key.Col]
	}
	for s, st := range p.States {
		if st.Kind.counts() {
			cols[nk+s] = p.onesOf(t.N)
		} else {
			cols[nk+s] = t.Cols[st.Col]
		}
	}
	out := tc.TileScratch(cols, t.N)
	out.Sel, out.RIDs = t.Sel, t.RIDs
	return p.Next.Produce(tc, out)
}

// onesOf returns n ones.
func (p *PreAggOp) onesOf(n int) coltypes.Data {
	if p.ones.Len() < n {
		p.ones = coltypes.New(coltypes.W1, n)
		for i := 0; i < n; i++ {
			p.ones.Set(i, 1)
		}
	}
	return p.ones.Slice(0, n)
}

// EndUnit emits the unit's occupied slots as one tile of (keys, states) rows,
// the keys decoded from the slot, and bills the table's slots.
func (p *PreAggOp) EndUnit(tc *qef.TaskCtx) error {
	p.inUnit = false
	span := p.span
	if span == 0 {
		return nil
	}
	if c := tc.Core; c != nil {
		c.Charge(dpu.Cycles(primitives.PreAggSlotCost(span, len(p.Keys), len(p.States))))
	}
	occupied := p.occ.Count()
	if occupied == 0 {
		return nil
	}
	tc.Pool.Mark()
	defer tc.Pool.Release()
	nk := len(p.Keys)
	cols := tc.Pool.Headers(nk + len(p.States))
	for k, key := range p.Keys {
		cols[k] = tc.Pool.Data(key.Width, span)
	}
	for slot := 0; slot < span; slot++ {
		rest := int64(slot)
		for k := nk - 1; k >= 0; k-- {
			cols[k].Set(slot, p.base[k]+rest%p.radix[k])
			rest /= p.radix[k]
		}
	}
	for s := range p.States {
		cols[nk+s] = coltypes.Of(p.table[s*p.Slots : s*p.Slots+span])
	}
	out := tc.TileScratch(cols, span)
	if occupied < span {
		out.Sel = &p.occ
	}
	return p.Next.Produce(tc, out)
}

func (p *PreAggOp) Close(tc *qef.TaskCtx) error { return p.Next.Close(tc) }
