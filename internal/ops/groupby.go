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

// findGroups writes to gids[i] the dense group id of row i — its hash hv[i],
// its key column k at keys[k][i] — adding each group it has not seen. It
// returns false when the table is full (the caller re-partitions, the
// runtime adaptation of §5.4).
func (g *GroupTable) findGroups(gids, hv []uint32, keys [][]int64) bool {
	for i, h := range hv {
		slot := h & g.mask
		for g.slots[slot] != 0 && !g.holds(int(g.slots[slot]-1), h, keys, i) {
			slot = (slot + 1) & g.mask
		}
		if g.slots[slot] == 0 { // a new group
			if g.n >= g.cap {
				return false
			}
			g.slots[slot], g.hashes[g.n] = uint32(g.n+1), h
			for k, col := range keys {
				g.keys[k*g.cap+g.n] = col[i]
			}
			g.n++
		}
		gids[i] = g.slots[slot] - 1
	}
	return true
}

// holds reports whether group gid has row i's hash h and key.
func (g *GroupTable) holds(gid int, h uint32, keys [][]int64, i int) bool {
	if g.hashes[gid] != h {
		return false
	}
	for k, col := range keys {
		if g.keys[k*g.cap+gid] != col[i] {
			return false
		}
	}
	return true
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
	Prog      *Program // the specs' arguments
	MaxGroups int
	Merger    *GroupMerger

	table *GroupTable
	aggs  [][]int64 // one per-group accumulator per spec
	keys  [][]int64 // a block of selected rows' keys, widened
}

// DMEMSize: the group table and per-spec accumulators (unit lifetime) — 32
// bytes a group and spec, as when each kept sum, min, max and count: the
// compiler picks the strategy by this size — plus the per-tile hash/gid/row
// vectors, the program's scratch and each spec's gather vector. Per-tile
// scratch comes from the task pool, so this stays an upper bound on
// observed pool usage.
func (g *GroupByOp) DMEMSize(tileRows int) int {
	return GroupTableSizeBytes(g.MaxGroups, len(g.GroupCols)) +
		len(g.Specs)*4*8*g.MaxGroups + 12*tileRows +
		g.Prog.ScratchBytes(tileRows) + gatherBytes(g.Specs, tileRows)
}

func (g *GroupByOp) Open(tc *qef.TaskCtx) error {
	g.table = NewGroupTable(g.MaxGroups, len(g.GroupCols))
	g.aggs = make([][]int64, len(g.Specs))
	for i, spec := range g.Specs {
		g.aggs[i] = spec.Kind.newAcc(make([]int64, g.MaxGroups))
	}
	g.keys = make([][]int64, len(g.GroupCols))
	for k := range g.keys {
		g.keys[k] = make([]int64, 64)
	}
	return nil
}

func (g *GroupByOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	primitives.ChargeTileOverhead(tc.Core)
	// Hash the group key columns (hardware CRC32 engine provides this in
	// the on-the-fly partitioning path).
	keyData := tc.Pool.Headers(len(g.GroupCols))
	for i, c := range g.GroupCols {
		keyData[i] = t.Cols[c]
	}
	hv := primitives.HashColumns(tc.Core, keyData, tc.Pool.U32(t.N)[:0])
	// The selected rows' group ids, 64 rows at a time: their hashes and
	// keys gathered, each key column through its width's own loop.
	gids := tc.Pool.U32(t.QualifyingRows())
	var hashes [64]uint32
	blocks, n := rowBlocks{t: t}, 0
	for rows, ok := blocks.next(); ok; rows, ok = blocks.next() {
		for j, r := range rows {
			hashes[j] = hv[r]
		}
		for k, d := range keyData {
			widenGather(g.keys[k], d, rows)
		}
		if !g.table.findGroups(gids[n:], hashes[:len(rows)], g.keys) {
			return ErrGroupOverflow
		}
		n += len(rows)
	}
	if c := tc.Core; c != nil {
		c.Charge(dpu.Cycles(3 * n)) // table probe loop
	}
	slots := g.Prog.Slots(tc)
	for s, spec := range g.Specs {
		var vals []int64
		if spec.Kind != AggCountStar {
			vals = gather(tc, t, slots.Get(tc, t, spec.Arg), false)
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
// keys[k] and spec s's partial value in vals[s]. Each spec folds with its
// merge kind (AggKind.Merge) from the kind's identity: a new key's group
// takes the row's partials.
func (m *GroupMerger) Fold(keys, vals []coltypes.Data) {
	hv := primitives.HashColumns(nil, keys, nil)
	if len(keys) == 0 && len(vals) > 0 { // one group
		hv = make([]uint32, vals[0].Len())
	}
	keyCols, valCols, gids := widened(keys), widened(vals), make([]uint32, len(hv))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reserve(len(hv))
	m.table.findGroups(gids, hv, keyCols)
	for s, spec := range m.Specs {
		merge, acc := spec.Kind.Merge(), m.accs[s]
		m.accs[s] = append(acc, merge.newAcc(make([]int64, m.table.NumGroups()-len(acc)))...)
		merge.accumulate(nil, m.accs[s], gids, valCols[s])
	}
}

// widened returns the columns widened to 64 bits.
func widened(cols []coltypes.Data) [][]int64 {
	out := make([][]int64, len(cols))
	for i, d := range cols {
		out[i] = primitives.WidenToI64(nil, d, nil)
	}
	return out
}

// reserve re-lays the table for n more groups, every group keeping its id.
func (m *GroupMerger) reserve(n int) {
	t := m.table
	if t.n+n <= t.cap {
		return
	}
	grown := NewGroupTable(max(t.n+n, 2*t.cap), m.NKeys)
	keys := make([][]int64, m.NKeys)
	for k := range keys {
		keys[k] = t.keyCol(k)
	}
	grown.findGroups(make([]uint32, t.n), t.hashes[:t.n], keys)
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
