package ops

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// FilterOp is the filter operator of §5.4. The compiler hands it one
// predicate, its conjunctions already ordered most-selective-first: the first
// member scans the tile densely and later ones see only surviving rows. The
// result representation switches between a RID list and a bit-vector by the
// 1/32 density rule, and materialization of payload columns is deferred to
// the downstream operator (late materialization) — the operator only updates
// the tile's selection state. Prog holds the operands of the predicate's
// ExprCmps (nil when it has none).
type FilterOp struct {
	Pred Predicate
	Prog *Program
	Next qef.Operator
}

// DMEMSize: the predicate tree's scratch (one bit-vector per node), its
// program's accumulators, the RID-list conversions on entry and exit, and
// control state. Kept an upper bound on observed pool usage — the
// conformance tests compare this against the pool high-water mark.
func (f *FilterOp) DMEMSize(tileRows int) int {
	return predScratchBytes(f.Pred, tileRows) + f.Prog.ScratchBytes(tileRows) + bits.VectorSizeBytes(tileRows) + 4*tileRows + 64
}

func (f *FilterOp) Open(tc *qef.TaskCtx) error { return f.Next.Open(tc) }

// Produce evaluates the predicate on one tile.
func (f *FilterOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	primitives.ChargeTileOverhead(tc.Core)
	cur := t.Sel
	if t.RIDs != nil {
		// Upstream handed a RID list; convert once.
		cur = tc.Pool.BV(t.N)
		cur.FromRIDs(t.RIDs)
		t.RIDs = nil
	}
	cur, hits := f.Pred.Eval(tc, t, f.Prog.Slots(tc), cur)
	if cur != nil {
		// Representation choice (§5.4): RID list below 1/32 density.
		if bits.ChooseRIDs(hits, t.N) {
			t.RIDs = cur.ToRIDs(tc.Pool.U32(hits)[:0])
			t.Sel = nil
		} else {
			t.Sel = cur
			t.RIDs = nil
		}
	}
	if hits == 0 {
		return nil // nothing survives; skip downstream
	}
	return f.Next.Produce(tc, t)
}

// Close flushes downstream.
func (f *FilterOp) Close(tc *qef.TaskCtx) error { return f.Next.Close(tc) }

// MaterializeOp compacts a tile's selection: qualifying rows of every column
// are gathered into dense output vectors. This is the deferred projection
// materialization at the point the compiler chose (§5.4).
type MaterializeOp struct {
	Next qef.Operator

	// RowBytes is the total byte width of one input row (sum of the widths
	// of the columns entering this operator). It sizes the gathered output
	// buffers in DMEMSize; zero falls back to a single 8-byte column.
	RowBytes int
}

// DMEMSize: the gathered output buffers (RowBytes per row, held
// simultaneously for the output tile) plus the RID list driving the gather.
func (m *MaterializeOp) DMEMSize(tileRows int) int {
	rb := m.RowBytes
	if rb <= 0 {
		rb = 8
	}
	return tileRows*rb + 4*tileRows
}

func (m *MaterializeOp) Open(tc *qef.TaskCtx) error { return m.Next.Open(tc) }

func (m *MaterializeOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	if t.Dense() {
		return m.Next.Produce(tc, t)
	}
	rids := t.AppendSelRIDs(tc.Pool.U32(t.QualifyingRows())[:0])
	out := tc.Pool.Headers(len(t.Cols))
	for i, c := range t.Cols {
		dst := tc.Pool.Data(c.Width(), len(rids))
		primitives.GatherRows(tc.Core, c, rids, dst)
		out[i] = dst
	}
	return m.Next.Produce(tc, tc.TileScratch(out, len(rids)))
}

func (m *MaterializeOp) Close(tc *qef.TaskCtx) error { return m.Next.Close(tc) }

// ProjCol is one output column of a ProjectOp: input column Keep passed
// through unchanged, or, when Keep is negative, program node Node.
type ProjCol struct {
	Keep int
	Node int
}

// ProjectOp emits its Cols in order. A kept column is a header move and
// costs nothing; an evaluated one is computed densely, so the compiler
// places a MaterializeOp upstream of a ProjectOp that evaluates any. Prog
// holds every evaluated output (nil when all are kept).
type ProjectOp struct {
	Cols []ProjCol
	Prog *Program
	Next qef.Operator
}

// DMEMSize: the scratch of the program, one vector per distinct node.
func (p *ProjectOp) DMEMSize(tileRows int) int { return p.Prog.ScratchBytes(tileRows) }

func (p *ProjectOp) Open(tc *qef.TaskCtx) error { return p.Next.Open(tc) }

func (p *ProjectOp) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	out := tc.Pool.Headers(len(p.Cols))
	s := p.Prog.Slots(tc)
	for i, c := range p.Cols {
		if c.Keep >= 0 {
			out[i] = t.Cols[c.Keep]
		} else {
			out[i] = coltypes.Of(s.Get(tc, t, c.Node))
		}
	}
	nt := tc.TileScratch(out, t.N)
	nt.Sel = t.Sel
	nt.RIDs = t.RIDs
	return p.Next.Produce(tc, nt)
}

func (p *ProjectOp) Close(tc *qef.TaskCtx) error { return p.Next.Close(tc) }
