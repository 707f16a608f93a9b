package qcomp

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// underSpan is the profiling bracket of every physNode: rowsIn materialised
// input rows count in on sp, run executes with sp as the active span (the
// work units it starts and the DMS passes it issues bill to sp), the previous
// span comes back, and the rows run returns count out on outSp — sp itself,
// except for a pipeline, whose scan runs under its source span and whose rows
// leave through its terminal.
func underSpan(ctx *qef.Context, sp, outSp *obs.OpSpan, rowsIn int, run func() (*ops.Relation, error)) (*ops.Relation, error) {
	sp.AddRowsIn(int64(rowsIn))
	prev := ctx.SetActiveSpan(sp)
	out, err := run()
	ctx.SetActiveSpan(prev)
	if err != nil {
		return nil, err
	}
	outSp.AddRowsOut(int64(out.Rows()))
	return out, nil
}

// ---------------------------------------------------------------------------
// Partitioned (high NDV) group-by.

type groupPartNode struct {
	input     physNode
	groupCols []int
	specs     []ops.AggSpec
	finals    []finalSpec
	out       []plan.Field
	ndv       int64
	opID      int
}

func (g *groupPartNode) fields() []plan.Field { return g.out }
func (g *groupPartNode) estRows() int64       { return g.ndv }

func (g *groupPartNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	rel, err := g.input.execute(ctx)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(g.opID)
	return underSpan(ctx, sp, sp, rel.Rows(), func() (*ops.Relation, error) {
		// Scheme: enough partitions that each partition's group table fits
		// the DMEM (the §5.4 pre-partitioning of high-NDV group-by).
		groupBytes := int64(len(g.groupCols)*8 + len(g.specs)*32)
		target := RequiredPartitions(g.ndv*groupBytes, ctx.SoC.Config())
		scheme := OptimizeScheme(target, g.ndv*groupBytes)
		maxGroups := int(g.ndv)/scheme.Fanout() + 64
		raw, err := ops.GroupByPartitioned(ctx, rel, g.groupCols, g.specs, scheme, maxGroups*2)
		if err != nil {
			return nil, err
		}
		return finalize(raw, len(g.groupCols), g.finals, g.out)
	})
}

// ---------------------------------------------------------------------------
// Hash join.

type joinNode struct {
	typ     plan.JoinType
	left    physNode // probe / output-first side
	right   physNode // build side candidate
	lk, rk  []int
	out     []plan.Field
	est     int64
	scheme  ops.PartScheme
	swapped bool // build is the left input
	opID    int
}

func compileJoin(j *plan.Join, in map[plan.Node]*ops.Relation) (physNode, error) {
	left, err := compileNode(j.Left, in)
	if err != nil {
		return nil, err
	}
	right, err := compileNode(j.Right, in)
	if err != nil {
		return nil, err
	}
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 || len(j.LeftKeys) > 2 {
		return nil, fmt.Errorf("qcomp: join needs 1 or 2 key pairs")
	}
	n := &joinNode{
		typ: j.Type, left: left, right: right,
		lk: j.LeftKeys, rk: j.RightKeys,
		out: j.Schema(),
	}
	// Build-side choice: the smaller input, except for semi/anti/outer
	// joins whose semantics pin the build side to the right input.
	if j.Type == plan.InnerJoin && left.estRows() < right.estRows() {
		n.swapped = true
	}
	buildEst := right.estRows()
	if n.swapped {
		buildEst = left.estRows()
	}
	probeEst := left.estRows() + right.estRows() - buildEst
	n.est = probeEst
	// Partition scheme from the optimizer (§5.3): size on the build side.
	buildBytes := buildEst * int64(len(n.rk)*8+16)
	target := RequiredPartitions(buildBytes, dpu.DefaultConfig())
	n.scheme = OptimizeScheme(target, buildBytes)
	return n, nil
}

func (n *joinNode) fields() []plan.Field { return n.out }
func (n *joinNode) estRows() int64       { return n.est }

func (n *joinNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	leftRel, err := n.left.execute(ctx)
	if err != nil {
		return nil, err
	}
	rightRel, err := n.right.execute(ctx)
	if err != nil {
		return nil, err
	}
	build, probe := rightRel, leftRel
	bk, pk := n.rk, n.lk
	if n.swapped {
		build, probe = leftRel, rightRel
		bk, pk = n.lk, n.rk
	}
	spec := ops.JoinSpec{
		Type:      n.typ,
		BuildKeys: bk,
		ProbeKeys: pk,
		Scheme:    n.scheme,
	}
	// Payload: all columns of each side (the logical schema).
	switch n.typ {
	case plan.SemiJoin, plan.AntiJoin:
		spec.ProbePayload = allIdx(probe.NumCols())
	default:
		spec.ProbePayload = allIdx(probe.NumCols())
		spec.BuildPayload = allIdx(build.NumCols())
	}
	sp := ctx.Prof.Span(n.opID)
	out, err := underSpan(ctx, sp, sp, leftRel.Rows()+rightRel.Rows(), func() (*ops.Relation, error) {
		return ops.HashJoin(ctx, build, probe, spec)
	})
	if err != nil {
		return nil, err
	}
	// Output order: left columns then right columns. The sink emits probe
	// then build; reorder when the build side was the left input.
	if n.swapped && n.typ == plan.InnerJoin {
		nl := leftRel.NumCols()
		np := probe.NumCols()
		order := make([]int, 0, out.NumCols())
		for i := range nl {
			order = append(order, np+i) // left (= build) side
		}
		out = out.Project(append(order, allIdx(np)...)) // then right (= probe) side
	}
	// Restore field metadata.
	for i := range out.Cols {
		if i < len(n.out) {
			out.Cols[i].Name = n.out[i].Name
			out.Cols[i].Type = n.out[i].Type
			out.Cols[i].Dict = n.out[i].Dict
		}
	}
	return out, nil
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ---------------------------------------------------------------------------
// Sort / Top-K / Limit.

type sortNode struct {
	input physNode
	keys  []plan.SortItem
	opID  int
}

func (n *sortNode) fields() []plan.Field { return n.input.fields() }
func (n *sortNode) estRows() int64       { return n.input.estRows() }
func (n *sortNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(n.opID)
	return underSpan(ctx, sp, sp, rel.Rows(), func() (*ops.Relation, error) {
		ranked, keys := rankColumns(rel, n.keys)
		out, err := ops.SortRelation(ctx, ranked, keys)
		if err != nil {
			return nil, err
		}
		return out.Project(allIdx(rel.NumCols())), nil
	})
}

// rankColumns replaces dictionary-coded sort columns by their rank so that
// ORDER BY sorts lexicographically (codes are insertion-ordered, not
// lexicographic). Returns a relation view with substitute columns appended
// and remapped keys.
func rankColumns(rel *ops.Relation, keys []plan.SortItem) (*ops.Relation, []plan.SortItem) {
	out := rel
	mapped := append([]plan.SortItem(nil), keys...)
	for i, k := range keys {
		c := rel.Cols[k.Col]
		if c.Type.Kind != coltypes.KindString || c.Dict == nil {
			continue
		}
		out = out.Flat()
		rank := c.Dict.SortRank()
		codes := out.Col(k.Col)
		data := coltypes.New(coltypes.W4, codes.Len())
		for r := 0; r < codes.Len(); r++ {
			code := codes.Get(r)
			if code >= 0 && code < int64(len(rank)) {
				data.Set(r, int64(rank[code]))
			}
		}
		out = ops.MustRelation(
			append(append([]ops.Col(nil), out.Cols...), ops.Col{Name: c.Name + "#rank", Type: coltypes.Int()}),
			append(append([]coltypes.Data(nil), out.Chunks[0]...), data))
		mapped[i].Col = out.NumCols() - 1
	}
	return out, mapped
}

type topkNode struct {
	input physNode
	keys  []plan.SortItem
	k     int
	opID  int
}

func (n *topkNode) fields() []plan.Field { return n.input.fields() }
func (n *topkNode) estRows() int64 {
	e := n.input.estRows()
	if int64(n.k) < e {
		return int64(n.k)
	}
	return e
}
func (n *topkNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(n.opID)
	return underSpan(ctx, sp, sp, rel.Rows(), func() (*ops.Relation, error) {
		ranked, keys := rankColumns(rel, n.keys)
		out, err := ops.TopK(ctx, ranked, keys, n.k)
		if err != nil {
			return nil, err
		}
		return out.Project(allIdx(rel.NumCols())), nil
	})
}

type limitNode struct {
	input physNode
	k     int
	opID  int
}

func (n *limitNode) fields() []plan.Field { return n.input.fields() }
func (n *limitNode) estRows() int64       { return int64(n.k) }
func (n *limitNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(n.opID)
	return underSpan(ctx, sp, sp, rel.Rows(), func() (*ops.Relation, error) { return ops.Limit(rel, n.k), nil })
}

// ---------------------------------------------------------------------------
// Set operations.

type setopNode struct {
	left, right physNode
	kind        plan.SetOpKind
	opID        int
}

func (n *setopNode) fields() []plan.Field { return n.left.fields() }
func (n *setopNode) estRows() int64       { return n.left.estRows() + n.right.estRows() }
func (n *setopNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	l, err := n.left.execute(ctx)
	if err != nil {
		return nil, err
	}
	r, err := n.right.execute(ctx)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(n.opID)
	return underSpan(ctx, sp, sp, l.Rows()+r.Rows(), func() (*ops.Relation, error) { return ops.SetOp(ctx, l, r, n.kind) })
}

// ---------------------------------------------------------------------------
// Window.

type windowNode struct {
	input physNode
	spec  *plan.Window
	opID  int
}

func (n *windowNode) fields() []plan.Field { return n.spec.Schema() }
func (n *windowNode) estRows() int64       { return n.input.estRows() }
func (n *windowNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(n.opID)
	return underSpan(ctx, sp, sp, rel.Rows(), func() (*ops.Relation, error) {
		return ops.Window(ctx, rel, ops.WindowSpec{
			Func:        n.spec.Func,
			PartitionBy: n.spec.PartitionBy,
			OrderBy:     n.spec.OrderBy,
			ValueCol:    n.spec.ValueCol,
			Name:        n.spec.Name,
		})
	})
}
