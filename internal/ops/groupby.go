package ops

import (
	"fmt"
	"sort"
	"sync"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// GroupTable is the DMEM-resident grouping hash table: open addressing over
// the CRC32 hash of the group keys, group keys stored columnar by dense
// group id. Like the join kernel it is pointer-free and sized against the
// 32 KiB scratchpad.
type GroupTable struct {
	mask   uint32
	slots  []uint32 // gid+1; 0 = empty
	keys   []int64  // key k of group gid at keys[k*cap+gid]
	hashes []uint32 // per-gid hash for fast reject
	n      int
	cap    int
}

// GroupTableSizeBytes returns the DMEM footprint for maxGroups groups with
// nKeys key columns (what the group-by declares as op_dmem_size).
func GroupTableSizeBytes(maxGroups, nKeys int) int {
	slots := nextPow2(2 * maxGroups)
	return slots*4 + maxGroups*(nKeys*8+4)
}

// NewGroupTable builds a table for up to maxGroups groups of nKeys key
// columns.
func NewGroupTable(maxGroups, nKeys int) *GroupTable {
	t := newGroupTable(maxGroups, make([]uint32, nextPow2(2*maxGroups)+maxGroups), make([]int64, nKeys*maxGroups))
	return &t
}

// newGroupTable lays a table for up to maxGroups groups out in u32 (slots,
// then hashes) and keys — heap or un-zeroed task scratch.
func newGroupTable(maxGroups int, u32 []uint32, keys []int64) GroupTable {
	slots := nextPow2(2 * maxGroups)
	// Read before written: FindOrAdd takes a 0 slot for an empty one. Hashes
	// and keys are written when their group is added.
	clear(u32[:slots])
	return GroupTable{mask: uint32(slots - 1), slots: u32[:slots], hashes: u32[slots:], keys: keys, cap: maxGroups}
}

// NumGroups returns the number of distinct groups seen.
func (g *GroupTable) NumGroups() int { return g.n }

// Key returns key column k of group gid.
func (g *GroupTable) Key(k int, gid int) int64 { return g.keys[k*g.cap+gid] }

// keyCol returns key column k of every group, by group id.
func (g *GroupTable) keyCol(k int) []int64 { return g.keys[k*g.cap : k*g.cap+g.n] }

// FindOrAdd returns the dense group id of the key tuple, adding it when
// new. Returns -1 when the table is full (the caller re-partitions, the
// runtime adaptation of §5.4).
func (g *GroupTable) FindOrAdd(h uint32, key []int64) int {
	slot := h & g.mask
	for {
		s := g.slots[slot]
		if s == 0 {
			if g.n >= g.cap {
				return -1
			}
			gid := g.n
			g.n++
			g.slots[slot] = uint32(gid + 1)
			g.hashes[gid] = h
			for k, v := range key {
				g.keys[k*g.cap+gid] = v
			}
			return gid
		}
		gid := int(s - 1)
		if g.hashes[gid] == h {
			match := true
			for k, v := range key {
				if g.keys[k*g.cap+gid] != v {
					match = false
					break
				}
			}
			if match {
				return gid
			}
		}
		slot = (slot + 1) & g.mask
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ErrGroupOverflow signals that the low-NDV strategy hit more groups than
// the statistics predicted; the caller falls back to the partitioned
// strategy.
var ErrGroupOverflow = fmt.Errorf("ops: group table overflow (NDV above estimate)")

// GroupByOp is the low-NDV group-by strategy of §5.4: every core aggregates
// into its own small DMEM table, and a merge operator combines the (few)
// groups at Close. The compiler selects this strategy when the table of all
// groups fits the collective DMEM.
type GroupByOp struct {
	GroupCols []int // tile column indices of the group keys
	Specs     []AggSpec
	MaxGroups int
	Merger    *GroupMerger

	table  *GroupTable
	aggs   [][]int64 // one per-group accumulator per spec
	keyBuf []int64
}

// DMEMSize: the group table and per-spec accumulators (unit lifetime) — 32
// bytes a group and spec, as when each kept sum, min, max and count: the
// compiler picks the strategy by this size — plus the per-tile hash/gid/row
// vectors and each aggregate expression's scratch. Per-tile scratch comes
// from the task pool, so this stays an upper bound on observed pool usage.
func (g *GroupByOp) DMEMSize(tileRows int) int {
	total := GroupTableSizeBytes(g.MaxGroups, len(g.GroupCols)) +
		len(g.Specs)*4*8*g.MaxGroups + 12*tileRows
	for _, spec := range g.Specs {
		if spec.Kind == AggCountStar || spec.Expr == nil {
			continue
		}
		total += exprScratchBytes(spec.Expr, tileRows) + 8*tileRows
	}
	return total
}

func (g *GroupByOp) Open(tc *qef.TaskCtx) error {
	g.table = NewGroupTable(g.MaxGroups, len(g.GroupCols))
	g.aggs = make([][]int64, len(g.Specs))
	for i, spec := range g.Specs {
		g.aggs[i] = spec.Kind.newAcc(make([]int64, g.MaxGroups))
	}
	g.keyBuf = make([]int64, len(g.GroupCols))
	return nil
}

func (g *GroupByOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	primitives.ChargeTileOverhead(tc.Core)
	// Hash the group key columns (hardware CRC32 engine provides this in
	// the on-the-fly partitioning path).
	keyData := tc.ColScratch(len(g.GroupCols))
	for i, c := range g.GroupCols {
		keyData[i] = t.Cols[c]
	}
	hv := primitives.HashColumns(tc.Core, keyData, tc.RIDScratch(t.N))
	gids := tc.RIDScratch(t.N)
	rows := tc.RIDScratch(t.N)
	var overflow error
	t.ForEachRow(func(i int) {
		if overflow != nil {
			return
		}
		for k, d := range keyData {
			g.keyBuf[k] = d.Get(i)
		}
		gid := g.table.FindOrAdd(hv[i], g.keyBuf)
		if gid < 0 {
			overflow = ErrGroupOverflow
			return
		}
		gids = append(gids, uint32(gid))
		rows = append(rows, uint32(i))
	})
	if overflow != nil {
		return overflow
	}
	if c := tc.Core; c != nil {
		c.Charge(dpu.Cycles(3 * len(rows))) // table probe loop
	}
	dense := t.Dense()
	for s, spec := range g.Specs {
		var vals []int64
		if spec.Kind != AggCountStar {
			vals = spec.Expr.Eval(tc, t)
		}
		if spec.Kind != AggCountStar && !dense {
			sub := tc.I64Scratch(len(rows))
			for j, r := range rows {
				sub[j] = vals[r]
			}
			vals = sub
		}
		spec.Kind.accumulate(tc.Core, g.aggs[s], gids, vals)
	}
	return nil
}

func (g *GroupByOp) Close(tc *qef.TaskCtx) error {
	// Merge operator: ship local groups to the shared merger over ATE.
	if g.table == nil {
		return nil
	}
	n := g.table.NumGroups()
	if c := tc.Core; c != nil && n > 0 {
		c.Charge(dpu.Cycles(10 * n))
	}
	keys := make([]coltypes.Data, len(g.GroupCols))
	for k := range keys {
		keys[k] = coltypes.Of(g.table.keyCol(k))
	}
	vals := make([]coltypes.Data, len(g.aggs))
	for s, acc := range g.aggs {
		vals[s] = coltypes.Of(acc[:n])
	}
	g.Merger.Fold(keys, vals)
	return nil
}

// GroupMerger combines partial group rows — per-core group tables, per-core
// scalar states (zero keys: one group), or the tray's per-node partials —
// into the final grouped result.
type GroupMerger struct {
	NKeys int
	Specs []AggSpec

	mu    sync.Mutex
	table *GroupTable
	accs  [][]int64 // [spec][gid]
}

// NewGroupMerger builds a merger for nKeys group columns and the specs.
func NewGroupMerger(nKeys int, specs []AggSpec) *GroupMerger {
	return &GroupMerger{
		NKeys: nKeys,
		Specs: specs,
		table: NewGroupTable(0, nKeys),
		accs:  make([][]int64, len(specs)),
	}
}

// Fold merges rows into the groups: row i has key column k's value in
// keys[k] and spec s's partial value in vals[s]. A new key starts its group
// with the row's partials; a known one folds them in: MIN keeps the smaller,
// MAX the larger, every other kind adds.
func (m *GroupMerger) Fold(keys, vals []coltypes.Data) {
	var n int
	switch {
	case len(keys) > 0:
		n = keys[0].Len()
	case len(vals) > 0:
		n = vals[0].Len()
	}
	hv := primitives.HashColumns(nil, keys, nil) // nil with no keys: one group
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reserve(n)
	key := make([]int64, m.NKeys)
	for i := 0; i < n; i++ {
		var h uint32
		if hv != nil {
			h = hv[i]
		}
		for k, d := range keys {
			key[k] = d.Get(i)
		}
		before := m.table.NumGroups()
		gid := m.table.FindOrAdd(h, key)
		for s, spec := range m.Specs {
			v := vals[s].Get(i)
			if gid == before {
				m.accs[s] = append(m.accs[s], v)
				continue
			}
			acc := &m.accs[s][gid]
			switch spec.Kind {
			case AggMin:
				*acc = min(*acc, v)
			case AggMax:
				*acc = max(*acc, v)
			default: // sums and counts add up
				*acc += v
			}
		}
	}
}

// reserve re-lays the table for n more groups, every group keeping its id.
func (m *GroupMerger) reserve(n int) {
	t := m.table
	if t.n+n <= t.cap {
		return
	}
	grown := NewGroupTable(max(t.n+n, 2*t.cap), m.NKeys)
	key := make([]int64, m.NKeys)
	for gid := 0; gid < t.n; gid++ {
		for k := range key {
			key[k] = t.Key(k, gid)
		}
		grown.FindOrAdd(t.hashes[gid], key)
	}
	m.table = grown
}

// Relation materializes the merged result: group key columns first, then
// one column per agg spec, rows in ascending key order. Per-core tables merge
// in whatever order the cores closed, and which groups a core saw depends on
// the worker count; sorting the (unique) keys makes the result the same
// relation at any parallelism.
func (m *GroupMerger) Relation(keyCols []Col, outNames []string) *Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.table.NumGroups()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		for k := 0; k < m.NKeys; k++ {
			if x, y := m.table.Key(k, order[a]), m.table.Key(k, order[b]); x != y {
				return x < y
			}
		}
		return false
	})
	cols := append(make([]Col, 0, m.NKeys+len(m.Specs)), keyCols[:m.NKeys]...)
	data := make([]coltypes.Data, 0, cap(cols))
	for k := 0; k < m.NKeys; k++ {
		vals := make([]int64, n)
		for i, gid := range order {
			vals[i] = m.table.Key(k, gid)
		}
		data = append(data, coltypes.Of(vals))
	}
	for s, spec := range m.Specs {
		vals := make([]int64, n)
		for i, gid := range order {
			vals[i] = m.accs[s][gid]
		}
		name := spec.Name
		if name == "" && s < len(outNames) {
			name = outNames[s]
		}
		cols = append(cols, Col{Name: name, Type: coltypes.Int()})
		data = append(data, coltypes.Of(vals))
	}
	return MustRelation(cols, data)
}
