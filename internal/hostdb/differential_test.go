package hostdb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// Differential testing: the same randomly generated logical plans must
// produce identical results on the RAPID vectorized engine (both modes) and
// the System X row interpreter. This exercises expression scale alignment,
// predicate compilation, selection representations and the operators
// against an independent implementation.

type exprGen struct {
	rng    *rand.Rand
	fields []plan.Field
}

func (g *exprGen) expr(depth int) plan.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		// Leaf: column or constant.
		if g.rng.Intn(2) == 0 {
			// Numeric columns only (0..2).
			idx := g.rng.Intn(3)
			f := g.fields[idx]
			return &plan.ColRef{Idx: idx, Name: f.Name, T: f.Type}
		}
		if g.rng.Intn(2) == 0 {
			return &plan.Const{T: coltypes.Int(), Val: int64(g.rng.Intn(200) - 100)}
		}
		return &plan.Const{T: coltypes.Decimal(2), Val: int64(g.rng.Intn(20000) - 10000)}
	}
	ops := []plan.ArithOp{plan.Add, plan.Sub, plan.Mul}
	// Division is excluded: integer division does not commute with the
	// scale-alignment order and both engines define it independently.
	a, err := plan.NewArith(ops[g.rng.Intn(len(ops))], g.expr(depth-1), g.expr(depth-1))
	if err != nil {
		return &plan.Const{T: coltypes.Int(), Val: 1}
	}
	return a
}

func (g *exprGen) pred(depth int) plan.Pred {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		op := []plan.CmpOp{plan.EQ, plan.NE, plan.LT, plan.LE, plan.GT, plan.GE}[g.rng.Intn(6)]
		return &plan.Cmp{Op: op, L: g.expr(1), R: g.expr(1)}
	}
	switch g.rng.Intn(3) {
	case 0:
		return &plan.AndPred{Preds: []plan.Pred{g.pred(depth - 1), g.pred(depth - 1)}}
	case 1:
		return &plan.OrPred{Preds: []plan.Pred{g.pred(depth - 1), g.pred(depth - 1)}}
	default:
		return &plan.NotPred{P: g.pred(depth - 1)}
	}
}

func diffTable(t *testing.T, rng *rand.Rand, rows int) (*Database, *storage.Table) {
	t.Helper()
	db := New()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "a", Type: coltypes.Int()},
		storage.ColumnDef{Name: "b", Type: coltypes.Int()},
		storage.ColumnDef{Name: "d", Type: coltypes.Decimal(2)},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	var batch [][]storage.Value
	for i := 0; i < rows; i++ {
		batch = append(batch, []storage.Value{
			storage.IntValue(int64(rng.Intn(200) - 100)),
			storage.IntValue(int64(rng.Intn(50))),
			storage.DecString(fmt.Sprintf("%d.%02d", rng.Intn(100)-50, rng.Intn(100))),
		})
	}
	if _, err := db.Insert("t", batch); err != nil {
		t.Fatal(err)
	}
	rt, err := db.Load("t", LoadOptions{ChunkRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	return db, rt
}

func TestDifferentialRandomPlans(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 977))
			db, rt := diffTable(t, rng, 500+rng.Intn(1500))
			scan := plan.NewScan(rt, storage.LatestSCN, nil)
			g := &exprGen{rng: rng, fields: scan.Schema()}

			// Filter + projection of random expressions, ordered by the
			// first input column for stable comparison.
			node := plan.Node(scan)
			node = &plan.Filter{Input: node, Pred: g.pred(2)}
			outExpr := g.expr(2)
			node = &plan.Project{
				Input: node,
				Exprs: []plan.Expr{
					&plan.ColRef{Idx: 0, Name: "a", T: scan.Schema()[0].Type},
					outExpr,
				},
				Names: []string{"a", "e"},
			}

			// Row interpreter.
			hostRel, err := db.runHost(context.Background(), node)
			if err != nil {
				t.Fatal(err)
			}
			// Vectorized engine, both modes.
			for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
				compiled, err := qcomp.Compile(node)
				if err != nil {
					t.Fatalf("compile: %v\nexpr: %s", err, outExpr)
				}
				rel, err := compiled.Execute(qef.NewContext(mode))
				if err != nil {
					t.Fatal(err)
				}
				if rel.Rows() != hostRel.Rows() {
					t.Fatalf("%v: rows %d vs host %d\nplan:\n%s", mode, rel.Rows(), hostRel.Rows(), plan.Format(node))
				}
				// Compare as multisets of (a, e) pairs.
				count := map[[2]int64]int{}
				for i := 0; i < rel.Rows(); i++ {
					count[[2]int64{rel.Get(i, 0), rel.Get(i, 1)}]++
				}
				for i := 0; i < hostRel.Rows(); i++ {
					count[[2]int64{hostRel.Get(i, 0), hostRel.Get(i, 1)}]--
				}
				for k, c := range count {
					if c != 0 {
						t.Fatalf("%v: multiset mismatch at %v (%+d)\nexpr: %s\nplan:\n%s",
							mode, k, c, outExpr, plan.Format(node))
					}
				}
			}
		})
	}
}

// Differential aggregation: random group-by plans agree across engines.
func TestDifferentialRandomAggregates(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*31 + 7))
		db, rt := diffTable(t, rng, 800)
		scan := plan.NewScan(rt, storage.LatestSCN, nil)
		g := &exprGen{rng: rng, fields: scan.Schema()}
		kinds := []plan.AggKind{plan.Sum, plan.Min, plan.Max, plan.Count, plan.Avg}
		agg := plan.AggExpr{
			Kind: kinds[rng.Intn(len(kinds))],
			Arg:  g.expr(1),
			Name: "agg",
		}
		node := plan.Node(&plan.GroupBy{
			Input: scan,
			Keys:  []plan.Expr{&plan.ColRef{Idx: 1, Name: "b", T: coltypes.Int()}},
			Aggs:  []plan.AggExpr{agg},
		})
		hostRel, err := db.runHost(context.Background(), node)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := qcomp.Compile(node)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := compiled.Execute(qef.NewContext(qef.ModeX86))
		if err != nil {
			t.Fatal(err)
		}
		if rel.Rows() != hostRel.Rows() {
			t.Fatalf("trial %d: groups %d vs %d", trial, rel.Rows(), hostRel.Rows())
		}
		want := map[int64]int64{}
		for i := 0; i < hostRel.Rows(); i++ {
			want[hostRel.Get(i, 0)] = hostRel.Get(i, 1)
		}
		for i := 0; i < rel.Rows(); i++ {
			k := rel.Get(i, 0)
			if got := rel.Get(i, 1); got != want[k] {
				t.Fatalf("trial %d (%v): group %d: %d vs host %d", trial, agg.Kind, k, got, want[k])
			}
		}
	}
}
