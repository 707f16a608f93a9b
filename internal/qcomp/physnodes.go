package qcomp

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"

	"rapid/internal/coltypes"
	"rapid/internal/dms"
	"rapid/internal/dpu"
	"rapid/internal/mem"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/primitives"
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

func (g *groupPartNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	rel, err := g.input.execute(ctx)
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
	// probe-then-build columns back in Out's order.
	lpay, rpay []int
	order      []int
	opID       int
	// probeNDV, when not zero, is the distinct count of the probe keys, and
	// the probe side's pipeline ends in a stepJoinFilter (addFilter); zero
	// means the join has no filter step.
	probeNDV float64
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
		out: j.Schema(),
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
	if n.addFilter() {
		lw.filtered[j] = n
	}
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

// addFilter gives the probe side a join filter step when the join may drop
// probe rows, partitions them in a software round after the DMS's, the probe
// side is a pipeline that collects its rows, and the table statistics give
// its keys' distinct count, which the arming rule needs; it reports whether it
// did. Anti and outer joins emit the probe rows that match nothing. A join
// partitioned in one round would never arm the filter: no dropped row gives
// back the DMS reads it adds (filterBits). A probe side that is already a
// relation (a tray exchange's output) would take one more pass to filter.
func (n *joinNode) addFilter() bool {
	if n.typ != plan.InnerJoin && n.typ != plan.SemiJoin || len(n.scheme.Rounds) < 2 {
		return false
	}
	p, ok := n.probe().(*pipelineNode)
	if !ok || p.terminal != termCollect {
		return false
	}
	keys := n.probeKeys()
	ndv := 1.0
	for _, k := range keys {
		st := p.cols[k].stats
		if st == nil || st.NDV <= 0 {
			return false
		}
		ndv *= float64(st.NDV)
	}
	p.steps = append(p.steps, pipeStep{kind: stepJoinFilter, keys: keys})
	n.probeNDV = ndv
	return true
}

// build and probe are the join's inputs by role; probeKeys are the probe
// side's key columns.
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

func (n *joinNode) probeKeys() []int {
	if n.swapped {
		return n.rk
	}
	return n.lk
}

// joinFilterMaxLogBits caps a join filter at 2^17 bits, 16 KiB: half of a
// dpCore's DMEM.
const joinFilterMaxLogBits = 17

// filterBits is the arming rule of the join filter over nb build rows: the
// log2 of its bit count m, its estimated pass fraction, and whether to arm it.
//
// m is nextPow2(8·nb), at least a word per build partition and at most
// 2^joinFilterMaxLogBits. Of the probe rows a fraction f = min(1, nb/NDV) is
// expected to match and the rest to pass by chance at 1 - e^(-nb/m), one
// hash's false-positive rate. The filter is armed when it pays on the dpCores
// and on the DMS reads, which bound the statements that scan more than they
// write:
//   - cycles: the pass fraction is below primitives.JoinFilterBreakEven;
//   - reads: the DMS reads it adds — the vector's placement in every core's
//     DMEM, the fill's read of the build hashes, and the scan descriptors of
//     the smaller tiles the probe pipeline may need to keep the vector
//     resident — are at most the reads the software partitioning rounds
//     (every round after the DMS's first) no longer make of the dropped rows.
//
// Where a filter of m bits fails the read test a smaller one is tried, down
// to a word per partition. The writes need no test: a dropped row saves its
// collect write, which exceeds the vector's own.
func (n *joinNode) filterBits(nb int64) (logBits uint, pass float64, arm bool) {
	p := n.probe().(*pipelineNode)
	keys := len(n.lk)
	minLog := uint(mathbits.Len(uint(n.scheme.Fanout()))) + 5 // log2(fanout) + 6
	maxLog := minLog
	if nb > 0 {
		maxLog = max(minLog, uint(mathbits.Len64(uint64(8*nb-1))))
	}
	maxLog = min(maxLog, joinFilterMaxLogBits)
	budget := mem.DMEMSize - dmemReserve
	tile0 := ChooseTileRows(p.opReqs(0))
	srcRows, srcCols := float64(p.srcRows()), float64(p.srcCols())
	dm := dms.DefaultModel()
	descBytes := (dm.DescriptorIssueNs + dm.PageSwitchBaseNs + dm.PageSwitchPerColNs*srcCols) * 1e-9 * dm.PeakBytesPerSec
	swRounds := float64(max(len(n.scheme.Rounds)-1, 0))
	f := min(1, float64(nb)/n.probeNDV)
	for logBits = maxLog; logBits >= minLog; logBits-- {
		m := float64(uint64(1) << logBits)
		pass = f + (1-f)*(1-math.Exp(-float64(nb)/m))
		if pass >= primitives.JoinFilterBreakEven(keys) {
			return logBits, pass, false // a smaller filter passes more
		}
		tile := maxTileRowsFor(p.opReqs(int(m)/8), budget)
		if tile == 0 {
			continue
		}
		saved := (1 - pass) * float64(p.est) * 8 * float64(len(p.cols)) * swRounds
		added := dpuCores*m/8 + 4*float64(nb) + (srcRows/float64(tile)-srcRows/float64(tile0))*srcCols*descBytes
		if saved >= added {
			return logBits, pass, true
		}
	}
	return minLog, pass, false
}

// filteredProbe applies the arming rule to the executed build side and runs
// the probe side. Armed, the build side is partitioned (under the join's span,
// as the join would) and the filter filled from the partitions' hashes (under
// the filter's span) before the probe pipeline runs through it. The EXPLAIN
// detail of the filter states its size, or that it stayed off.
func (n *joinNode) filteredProbe(ctx *qef.Context, jb *ops.JoinBuild, nb int) (*ops.Relation, error) {
	p := n.probe().(*pipelineNode)
	id := p.stepIDs[len(p.steps)-1]
	keys := n.probeKeys()
	logBits, _, arm := n.filterBits(int64(nb))
	if !arm {
		ctx.Prof.SetDetail(id, fmt.Sprintf("(keys=%d, off)", len(keys)))
		return p.execute(ctx)
	}
	prev := ctx.SetActiveSpan(ctx.Prof.Span(n.opID))
	err := jb.Partition(ctx)
	var jf *ops.JoinFilter
	if err == nil {
		ctx.SetActiveSpan(ctx.Prof.Span(id))
		jf, err = jb.Filter(ctx, keys, logBits)
	}
	ctx.SetActiveSpan(prev)
	if err != nil {
		return nil, err
	}
	ctx.Prof.SetDetail(id, fmt.Sprintf("(keys=%d, bits=%d)", len(keys), jf.Bits()))
	rel, err := p.run(ctx, jf)
	ctx.CountMetric("ops_join_filter_dropped_rows_total", jf.Dropped())
	return rel, err
}

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

// execute runs both inputs and joins them. A join with a filter step runs its
// build side first, then its probe side through the filter when the build
// side's rows arm it; any other runs its left input, then its right.
func (n *joinNode) execute(ctx *qef.Context) (*ops.Relation, error) {
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
	if n.probeNDV == 0 {
		first, second := &probe, &build
		if n.swapped {
			first, second = second, first
		}
		if *first, err = n.left.execute(ctx); err != nil {
			return nil, err
		}
		if *second, err = n.right.execute(ctx); err != nil {
			return nil, err
		}
	} else if build, err = n.build().execute(ctx); err != nil {
		return nil, err
	}
	jb, err := ops.NewJoinBuild(build, spec)
	if err != nil {
		return nil, err
	}
	if n.probeNDV != 0 {
		if probe, err = n.filteredProbe(ctx, jb, build.Rows()); err != nil {
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
	// Restore field metadata.
	for i, f := range n.out {
		out.Cols[i] = ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict}
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
func (n *topkNode) estRows() int64       { return min(int64(n.k), n.input.estRows()) }
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
func (n *limitNode) estRows() int64       { return min(int64(n.k), n.input.estRows()) }
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
