package ops

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// Set operations (§5.4): MINUS, INTERSECT and UNION over relations of equal
// arity, with SQL set semantics (duplicates eliminated). Rows are compared
// on all columns through a GroupTable; the work is hash-partitioned across
// cores so each core owns a disjoint key space.

// SetOp computes `a kind b`. Column metadata comes from a.
func SetOp(ctx *qef.Context, a, b *Relation, kind plan.SetOpKind) (*Relation, error) {
	if a.NumCols() != b.NumCols() {
		return nil, fmt.Errorf("ops: set operation arity mismatch: %d vs %d", a.NumCols(), b.NumCols())
	}
	if kind == plan.UnionAll {
		return concatRelations(a, b)
	}
	// Both partitionings are released once the units have returned: what a
	// unit keeps of them (its table's keys) is a copy.
	allA, err := PartitionByHash(ctx, a.Chunks, allCols(a), PartScheme{Rounds: []int{16}}, qef.DefaultTileRows)
	if err != nil {
		return nil, err
	}
	defer allA.Release()
	allB, err := PartitionByHash(ctx, b.Chunks, allCols(b), PartScheme{Rounds: []int{16}}, qef.DefaultTileRows)
	if err != nil {
		return nil, err
	}
	defer allB.Release()
	nc := a.NumCols()
	results := make([][]coltypes.Data, allA.NumPartitions())
	units := make([]qef.WorkUnit, 0, allA.NumPartitions())
	for p := 0; p < allA.NumPartitions(); p++ {
		p := p
		units = append(units, func(tc *qef.TaskCtx) error {
			na, nb := allA.Rows(p), allB.Rows(p)
			// One table of the partition's distinct rows, keyed by the hashes
			// the partitioning computed. B's rows go in first, so an A row is
			// in B exactly when its group id is below inB.
			table := NewGroupTable(na+nb, nc)
			find := func(part *PartitionedRel, n int) []uint32 {
				gids := make([]uint32, n)
				table.findGroups(gids, part.Hashes[p][:n], widened(part.Cols[p]))
				return gids
			}
			find(allB, nb)
			inB := table.NumGroups()
			emitted := make([]bool, na+nb)
			var emit []int // group ids of the output rows, in output order
			keep := func(gid int) {
				if !emitted[gid] {
					emitted[gid] = true
					emit = append(emit, gid)
				}
			}
			for _, gid := range find(allA, na) {
				if kind == plan.Union || (int(gid) < inB) == (kind == plan.Intersect) {
					keep(int(gid))
				}
			}
			touched := na + nb // set build over B, probe with A
			if kind == plan.Union {
				// Rows only in B, in B's order: its groups are the first ids.
				touched += nb
				for gid := 0; gid < inB; gid++ {
					keep(gid)
				}
			}
			// Every row a unit touches is billed, B's as well as A's: the DMS
			// pass that partitioned B billed its bytes, and bytes whose rows
			// cost no core time would put activity energy above what the
			// unit's makespan provisions (an empty A against a full B did).
			if c := tc.Core; c != nil {
				c.Charge(dpu.Cycles(10 * (touched + 1)))
			}
			out := make([]coltypes.Data, nc)
			for c := range out {
				vals := make([]int64, len(emit))
				for j, gid := range emit {
					vals[j] = table.Key(c, gid)
				}
				out[c] = coltypes.Of(vals)
			}
			results[p] = out
			return nil
		})
	}
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}
	// Each partition's rows are a chunk of the result, in partition order.
	return MustRelation(a.Cols, results...), nil
}

func allCols(r *Relation) []int {
	out := make([]int, r.NumCols())
	for i := range out {
		out[i] = i
	}
	return out
}

// concatRelations is UNION ALL: b's chunks after a's. A column whose two
// sides differ in width is widened to W8 on both; the rest is shared.
func concatRelations(a, b *Relation) (*Relation, error) {
	chunks := make([][]coltypes.Data, 0, len(a.Chunks)+len(b.Chunks))
	for _, ch := range append(append([][]coltypes.Data(nil), a.Chunks...), b.Chunks...) {
		chunks = append(chunks, append([]coltypes.Data(nil), ch...))
	}
	for c := range a.Cols {
		if a.Chunks[0][c].Width() == b.Chunks[0][c].Width() {
			continue
		}
		for _, ch := range chunks {
			if ch[c].Width() != coltypes.W8 {
				ch[c] = coltypes.Of(primitives.WidenToI64(nil, ch[c], nil))
			}
		}
	}
	return NewRelation(a.Cols, chunks...)
}
