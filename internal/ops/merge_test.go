package ops

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// randomRows draws n rows of nc columns from a small domain with both
// extremes in it, so that duplicate rows and keys are common.
func randomRows(rng *rand.Rand, n, nc int) [][]int64 {
	domain := []int64{math.MinInt64, -2, -1, 0, 1, 2, math.MaxInt64}
	cols := make([][]int64, nc)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = domain[rng.Intn(len(domain))]
		}
	}
	return cols
}

func dataOf(cols [][]int64) []coltypes.Data {
	out := make([]coltypes.Data, len(cols))
	for c, vals := range cols {
		out[c] = coltypes.Of(vals)
	}
	return out
}

// TestGroupMergerFoldMatchesMapReference folds random batches of partial
// rows — 0 to 3 key columns, one spec of every AggKind, duplicate keys,
// empty batches — and compares the merged relation with a plain map fold:
// the same groups, the same values, in ascending key order.
func TestGroupMergerFoldMatchesMapReference(t *testing.T) {
	kinds := []AggKind{AggSum, AggMin, AggMax, AggCount, AggCountStar}
	specs := make([]AggSpec, len(kinds))
	for s, k := range kinds {
		specs[s] = AggSpec{Kind: k, Name: k.String()}
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nk := rng.Intn(4)
		m := NewGroupMerger(nk, specs)
		ref := map[[3]int64][]int64{}
		for batch := rng.Intn(4); batch >= 0; batch-- {
			n := rng.Intn(3) * rng.Intn(20) // zero rows a third of the time
			keys, vals := randomRows(rng, n, nk), randomRows(rng, n, len(specs))
			m.Fold(dataOf(keys), dataOf(vals))
			for i := 0; i < n; i++ {
				var key [3]int64
				for k := range keys {
					key[k] = keys[k][i]
				}
				accs, ok := ref[key]
				if !ok {
					accs = make([]int64, len(specs))
					for s := range specs {
						accs[s] = vals[s][i]
					}
					ref[key] = accs
					continue
				}
				for s, spec := range specs {
					switch v := vals[s][i]; spec.Kind {
					case AggMin:
						accs[s] = min(accs[s], v)
					case AggMax:
						accs[s] = max(accs[s], v)
					default:
						accs[s] += v
					}
				}
			}
		}
		want := make([][3]int64, 0, len(ref))
		for key := range ref {
			want = append(want, key)
		}
		sort.Slice(want, func(a, b int) bool {
			for k := 0; k < nk; k++ {
				if want[a][k] != want[b][k] {
					return want[a][k] < want[b][k]
				}
			}
			return false
		})
		rel := m.Relation(make([]Col, nk), nil)
		if rel.Rows() != len(want) || rel.NumCols() != nk+len(specs) {
			t.Logf("seed %d: %d rows × %d cols, want %d × %d", seed, rel.Rows(), rel.NumCols(), len(want), nk+len(specs))
			return false
		}
		for r, key := range want {
			for k := 0; k < nk; k++ {
				if got := rel.Get(r, k); got != key[k] {
					t.Logf("seed %d: row %d key %d = %d, want %d", seed, r, k, got, key[k])
					return false
				}
			}
			for s := range specs {
				if got := rel.Get(r, nk+s); got != ref[key][s] {
					t.Logf("seed %d: group %v %s = %d, want %d", seed, key[:nk], specs[s].Name, got, ref[key][s])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSetOpMatchesMapReference runs every set operation over random
// multi-column relations with duplicate rows and empty sides, and compares
// the result with a map reference: SQL set semantics for UNION, INTERSECT
// and MINUS, every row of both for UNION ALL.
func TestSetOpMatchesMapReference(t *testing.T) {
	rowKey := func(cols [][]int64, i int) string {
		var key []int64
		for _, c := range cols {
			key = append(key, c[i])
		}
		return fmt.Sprint(key)
	}
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			nc := 1 + rng.Intn(3)
			na, nb := rng.Intn(3)*rng.Intn(30), rng.Intn(3)*rng.Intn(30)
			ac, bc := randomRows(rng, na, nc), randomRows(rng, nb, nc)
			names := []string{"x", "y", "z"}[:nc]
			a, b := intRel(names, ac...), intRel(names, bc...)
			inA, inB := map[string]bool{}, map[string]bool{}
			var all []string
			for i := 0; i < na; i++ {
				inA[rowKey(ac, i)] = true
				all = append(all, rowKey(ac, i))
			}
			for i := 0; i < nb; i++ {
				inB[rowKey(bc, i)] = true
				all = append(all, rowKey(bc, i))
			}
			for _, kind := range []plan.SetOpKind{plan.Union, plan.UnionAll, plan.Intersect, plan.Minus} {
				var want []string
				switch kind {
				case plan.UnionAll:
					want = all
				case plan.Union:
					for k := range inA {
						want = append(want, k)
					}
					for k := range inB {
						if !inA[k] {
							want = append(want, k)
						}
					}
				case plan.Intersect, plan.Minus:
					for k := range inA {
						if inB[k] == (kind == plan.Intersect) {
							want = append(want, k)
						}
					}
				}
				out, err := SetOp(ctx, a, b, kind)
				if err != nil {
					t.Logf("seed %d %v: %v", seed, kind, err)
					return false
				}
				flat := out.Flat()
				gotCols := make([][]int64, nc)
				for c := range gotCols {
					gotCols[c] = coltypes.ToInt64s(flat.Col(c))
				}
				got := make([]string, flat.Rows())
				for i := range got {
					got[i] = rowKey(gotCols, i)
				}
				sort.Strings(got)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Logf("seed %d %v:\n got %v\nwant %v", seed, kind, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
}
