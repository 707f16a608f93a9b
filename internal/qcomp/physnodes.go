package qcomp

import (
	"fmt"
	"slices"

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
	prog      *ops.Program // the specs' arguments
	finals    []finalSpec
	out       []plan.Field
	ndv       int64
	opID      int
}

// scheme is the partitioning that leaves each partition's group table in a
// dpCore's DMEM: the §5.4 pre-partitioning of high-NDV group-by.
func (g *groupPartNode) scheme(cfg dpu.Config) ops.PartScheme {
	groupBytes := int64(len(g.groupCols)*8 + len(g.specs)*32)
	return OptimizeScheme(RequiredPartitions(g.ndv*groupBytes, cfg), g.ndv*groupBytes)
}

// swRounds is the number of software rounds after the DMS's that the
// default SoC partitions the group-by's input in.
func (g *groupPartNode) swRounds() int {
	return max(len(g.scheme(dpu.DefaultConfig()).Rounds)-1, 0)
}

func (g *groupPartNode) fields() []plan.Field { return g.out }
func (g *groupPartNode) estRows() int64       { return g.ndv }

func (g *groupPartNode) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	rel, err := g.input.execute(ctx, fs)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(g.opID)
	return underSpan(ctx, sp, sp, rel.Rows(), func() (*ops.Relation, error) {
		scheme := g.scheme(ctx.SoC.Config())
		maxGroups := int(g.ndv)/scheme.Fanout() + 64
		raw, err := ops.GroupByPartitioned(ctx, rel, g.groupCols, g.specs, g.prog, scheme, maxGroups*2)
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
	// lpay and rpay are the columns of each input the join outputs (the
	// plan's Out, split by side); order, when not nil, puts the sink's
	// probe-then-build columns back in Out's order; src is each output
	// column's position in left ++ right.
	lpay, rpay []int
	order      []int
	src        []int
	opID       int
	// logical is the plan node the join lowers, which the cost model prices.
	logical *plan.Join
	// filter, when not nil, is the join filter the join fills from its build
	// side (the schedule's edge, joinfilter.go): the join runs its build side
	// first, then its probe side, in which the filter's host tests it.
	filter *joinFilter
}

func compileJoin(j *plan.Join, lw *lowering) (physNode, error) {
	left, err := lw.node(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := lw.node(j.Right)
	if err != nil {
		return nil, err
	}
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 || len(j.LeftKeys) > 2 {
		return nil, fmt.Errorf("qcomp: join needs 1 or 2 key pairs")
	}
	n := &joinNode{
		typ: j.Type, left: left, right: right,
		lk: j.LeftKeys, rk: j.RightKeys,
		out: j.Schema(), logical: j,
	}
	// Build-side choice: the smaller input, except for semi/anti/outer
	// joins whose semantics pin the build side to the right input.
	if j.Type == plan.InnerJoin && left.estRows() < right.estRows() {
		n.swapped = true
	}
	n.payloads(j.Out, len(left.fields()), len(right.fields()))
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
	lw.joins = append(lw.joins, n)
	return n, nil
}

// payloads splits the join's output columns out (positions in left ++ right;
// nil is all of them) into each side's payload, and sets order when the sink,
// which emits the probe side's payload first, does not emit them in out's
// order.
func (n *joinNode) payloads(out []int, nl, nr int) {
	if out == nil {
		out = allIdx(nl)
		if n.typ != plan.SemiJoin && n.typ != plan.AntiJoin {
			out = allIdx(nl + nr)
		}
	}
	n.src = out
	for _, c := range out {
		if c < nl {
			n.lpay = append(n.lpay, c)
		} else {
			n.rpay = append(n.rpay, c-nl)
		}
	}
	// The sink's order, as positions in left ++ right: probe, then build.
	probe, build := n.lpay, make([]int, len(n.rpay))
	for i, c := range n.rpay {
		build[i] = nl + c
	}
	if n.swapped {
		probe, build = build, probe
	}
	emitted := append(append([]int(nil), probe...), build...)
	if slices.Equal(emitted, out) {
		return
	}
	n.order = make([]int, len(out))
	for i, c := range out {
		n.order[i] = slices.Index(emitted, c)
	}
}

// build and probe are the join's inputs by role; buildKeys and probeKeys are
// their key columns.
func (n *joinNode) build() physNode {
	if n.swapped {
		return n.left
	}
	return n.right
}

func (n *joinNode) probe() physNode {
	if n.swapped {
		return n.right
	}
	return n.left
}

func (n *joinNode) buildKeys() []int {
	if n.swapped {
		return n.lk
	}
	return n.rk
}

func (n *joinNode) probeKeys() []int {
	if n.swapped {
		return n.rk
	}
	return n.lk
}

// swRounds is the number of software rounds after the DMS's that the join
// partitions its inputs in.
func (n *joinNode) swRounds() int { return max(len(n.scheme.Rounds)-1, 0) }

func (n *joinNode) fields() []plan.Field { return n.out }
func (n *joinNode) estRows() int64       { return n.est }

// WidthError reports a join whose executed output has a different number of
// columns than its plan node declares.
type WidthError struct {
	Got, Want int
}

func (e *WidthError) Error() string {
	return fmt.Sprintf("qcomp: join output has %d columns, its plan declares %d", e.Got, e.Want)
}

// execute runs both inputs and joins them. A join that fills a filter runs
// its build side first, fills the filter when the build side's rows arm it,
// then runs its probe side, in which the filter is tested; any other runs its
// left input, then its right.
func (n *joinNode) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	spec := ops.JoinSpec{
		Type:         n.typ,
		BuildKeys:    n.rk,
		ProbeKeys:    n.lk,
		BuildPayload: n.rpay,
		ProbePayload: n.lpay,
		Scheme:       n.scheme,
	}
	if n.swapped {
		spec.BuildKeys, spec.ProbeKeys = n.lk, n.rk
		spec.BuildPayload, spec.ProbePayload = n.lpay, n.rpay
	}
	var build, probe *ops.Relation
	var err error
	if n.filter == nil {
		first, second := &probe, &build
		if n.swapped {
			first, second = second, first
		}
		if *first, err = n.left.execute(ctx, fs); err != nil {
			return nil, err
		}
		if *second, err = n.right.execute(ctx, fs); err != nil {
			return nil, err
		}
	} else if build, err = n.build().execute(ctx, fs); err != nil {
		return nil, err
	}
	jb, err := ops.NewJoinBuild(build, spec)
	if err != nil {
		return nil, err
	}
	if n.filter != nil {
		err = n.filter.fill(ctx, jb, build.Rows(), fs)
		if err == nil {
			probe, err = n.probe().execute(ctx, fs)
		}
		if err != nil {
			jb.Release()
			return nil, err
		}
	}
	sp := ctx.Prof.Span(n.opID)
	out, err := underSpan(ctx, sp, sp, build.Rows()+probe.Rows(), func() (*ops.Relation, error) {
		return jb.Probe(ctx, probe)
	})
	if err != nil {
		return nil, err
	}
	if n.order != nil {
		out = out.Project(n.order)
	}
	if out.NumCols() != len(n.out) {
		return nil, &WidthError{Got: out.NumCols(), Want: len(n.out)}
	}
	out.Cols = opsCols(n.out) // restore field metadata
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

// sortNode sorts its input or, with k >= 0, keeps its first k rows: Sort +
// Limit fused into the vectorized Top-K operator.
type sortNode struct {
	input physNode
	keys  []plan.SortItem
	k     int // -1: every row
	opID  int
}

func (n *sortNode) fields() []plan.Field { return n.input.fields() }
func (n *sortNode) estRows() int64 {
	if n.k >= 0 {
		return min(int64(n.k), n.input.estRows())
	}
	return n.input.estRows()
}
func (n *sortNode) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx, fs)
	if err != nil {
		return nil, err
	}
	sp := ctx.Prof.Span(n.opID)
	return underSpan(ctx, sp, sp, rel.Rows(), func() (out *ops.Relation, err error) {
		ranked, keys := rankColumns(rel, n.keys)
		if n.k >= 0 {
			out, err = ops.TopK(ctx, ranked, keys, n.k)
		} else {
			out, err = ops.SortRelation(ctx, ranked, keys)
		}
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

type limitNode struct {
	input physNode
	k     int
	opID  int
}

func (n *limitNode) fields() []plan.Field { return n.input.fields() }
func (n *limitNode) estRows() int64       { return min(int64(n.k), n.input.estRows()) }
func (n *limitNode) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx, fs)
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
func (n *setopNode) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	l, err := n.left.execute(ctx, fs)
	if err != nil {
		return nil, err
	}
	r, err := n.right.execute(ctx, fs)
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
func (n *windowNode) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx, fs)
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
