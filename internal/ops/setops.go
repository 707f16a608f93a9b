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
// on all columns via a hash set; the work is hash-partitioned across cores
// so each core owns a disjoint key space.

// SetOp computes `a kind b`. Column metadata comes from a.
func SetOp(ctx *qef.Context, a, b *Relation, kind plan.SetOpKind) (*Relation, error) {
	if a.NumCols() != b.NumCols() {
		return nil, fmt.Errorf("ops: set operation arity mismatch: %d vs %d", a.NumCols(), b.NumCols())
	}
	if kind == plan.UnionAll {
		return concatRelations(a, b)
	}
	// Both partitionings are released once the units have returned: what a
	// unit keeps of them (rowSet keys, appended output values) is a copy.
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
	results := make([][][]int64, allA.NumPartitions())
	units := make([]qef.WorkUnit, 0, allA.NumPartitions())
	for p := 0; p < allA.NumPartitions(); p++ {
		p := p
		units = append(units, func(tc *qef.TaskCtx) error {
			seenB := rowSet(allB.Cols[p], nc)
			out := make([][]int64, nc)
			emitted := map[string]struct{}{}
			key := make([]byte, 0, nc*8)
			na := 0
			if nc > 0 {
				na = allA.Cols[p][0].Len()
			}
			for i := 0; i < na; i++ {
				key = key[:0]
				for c := 0; c < nc; c++ {
					v := allA.Cols[p][c].Get(i)
					for b := 0; b < 8; b++ {
						key = append(key, byte(v>>(8*b)))
					}
				}
				ks := string(key)
				if _, dup := emitted[ks]; dup {
					continue
				}
				_, inB := seenB[ks]
				keep := false
				switch kind {
				case plan.Union:
					keep = true
				case plan.Intersect:
					keep = inB
				case plan.Minus:
					keep = !inB
				}
				if !keep {
					continue
				}
				emitted[ks] = struct{}{}
				for c := 0; c < nc; c++ {
					out[c] = append(out[c], allA.Cols[p][c].Get(i))
				}
			}
			nb := 0
			if nc > 0 {
				nb = allB.Cols[p][0].Len()
			}
			touched := na + nb // set build over B, probe with A
			if kind == plan.Union {
				// Rows only in B.
				touched += nb
				for i := 0; i < nb; i++ {
					key = key[:0]
					for c := 0; c < nc; c++ {
						v := allB.Cols[p][c].Get(i)
						for b := 0; b < 8; b++ {
							key = append(key, byte(v>>(8*b)))
						}
					}
					ks := string(key)
					if _, dup := emitted[ks]; dup {
						continue
					}
					emitted[ks] = struct{}{}
					for c := 0; c < nc; c++ {
						out[c] = append(out[c], allB.Cols[p][c].Get(i))
					}
				}
			}
			// Every row a unit touches is billed, B's as well as A's: the DMS
			// pass that partitioned B billed its bytes, and bytes whose rows
			// cost no core time would put activity energy above what the
			// unit's makespan provisions (an empty A against a full B did).
			if c := tc.Core; c != nil {
				c.Charge(dpu.Cycles(10 * (touched + 1)))
			}
			results[p] = out
			return nil
		})
	}
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}
	// Each partition's rows are a chunk of the result, in partition order.
	chunks := make([][]coltypes.Data, 0, len(results))
	for _, out := range results {
		if nc > 0 && len(out[0]) > 0 {
			chunk := make([]coltypes.Data, nc)
			for c, vals := range out {
				chunk[c] = coltypes.Of(vals)
			}
			chunks = append(chunks, chunk)
		}
	}
	return MustRelation(a.Cols, chunks...), nil
}

func allCols(r *Relation) []int {
	out := make([]int, r.NumCols())
	for i := range out {
		out[i] = i
	}
	return out
}

func rowSet(cols []coltypes.Data, nc int) map[string]struct{} {
	set := map[string]struct{}{}
	if nc == 0 || len(cols) == 0 {
		return set
	}
	n := cols[0].Len()
	key := make([]byte, 0, nc*8)
	for i := 0; i < n; i++ {
		key = key[:0]
		for c := 0; c < nc; c++ {
			v := cols[c].Get(i)
			for b := 0; b < 8; b++ {
				key = append(key, byte(v>>(8*b)))
			}
		}
		set[string(key)] = struct{}{}
	}
	return set
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
