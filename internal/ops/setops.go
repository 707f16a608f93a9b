package ops

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
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
	allA, err := PartitionByHash(ctx, a.Datas(), allCols(a), PartScheme{Rounds: []int{16}}, qef.DefaultTileRows)
	if err != nil {
		return nil, err
	}
	defer allA.Release()
	allB, err := PartitionByHash(ctx, b.Datas(), allCols(b), PartScheme{Rounds: []int{16}}, qef.DefaultTileRows)
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
	cols := make([]Col, nc)
	for c := 0; c < nc; c++ {
		var vals []int64
		for p := range results {
			if results[p] != nil {
				vals = append(vals, results[p][c]...)
			}
		}
		cols[c] = a.Cols[c]
		cols[c].Data = coltypes.Of(vals)
	}
	return MustRelation(cols), nil
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

func concatRelations(a, b *Relation) (*Relation, error) {
	cols := make([]Col, a.NumCols())
	for c := range cols {
		cols[c] = a.Cols[c]
		ad, bd := a.Cols[c].Data, b.Cols[c].Data
		if ad.Width() != bd.Width() {
			wide := coltypes.New(coltypes.W8, ad.Len()+bd.Len())
			for i := 0; i < ad.Len(); i++ {
				wide.Set(i, ad.Get(i))
			}
			for i := 0; i < bd.Len(); i++ {
				wide.Set(ad.Len()+i, bd.Get(i))
			}
			cols[c].Data = wide
			continue
		}
		dst := ad.NewSame(ad.Len() + bd.Len())
		dst.CopyFrom(0, ad)
		dst.CopyFrom(ad.Len(), bd)
		cols[c].Data = dst
	}
	return NewRelation(cols)
}
