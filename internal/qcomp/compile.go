package qcomp

import (
	"errors"
	"fmt"

	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// Compiled is a physical query execution plan (QEP) ready to run on a
// qef.Context.
type Compiled struct {
	root     physNode
	spanDefs []obs.SpanDef
	// plan, rows, preaggs, keep and filterSec are what the cost model reads
	// (cost.go): the logical plan lowered, the compiler's row estimate of
	// every node of it, the group-bys whose input pre-aggregates, and the
	// join filter schedule priced at those estimates (priceFilters).
	plan      plan.Node
	rows      map[plan.Node]int64
	preaggs   map[*plan.GroupBy]*preAgg
	keep      map[*plan.Join][2]float64
	filterSec map[*plan.Join]float64
}

// Compile lowers a logical plan into a physical QEP.
func Compile(n plan.Node) (*Compiled, error) { return CompileWithInputs(n, nil) }

// CompileWithInputs lowers a plan some of whose subtrees are already
// materialized relations: a node found in inputs compiles to a relation
// leaf instead of being lowered recursively. The distributed executor uses
// this to splice exchange outputs (shuffled/broadcast/gathered relations)
// under residual plan fragments.
func CompileWithInputs(n plan.Node, inputs map[plan.Node]*ops.Relation) (*Compiled, error) {
	lw := &lowering{in: inputs, rows: make(map[plan.Node]int64), preaggs: make(map[*plan.GroupBy]*preAgg)}
	pn, err := lw.node(n)
	if err != nil {
		return nil, err
	}
	sched := lw.schedule()
	reg := &spanReg{}
	pn.annotate(reg, -1)
	c := &Compiled{root: pn, spanDefs: reg.defs, plan: n, rows: lw.rows, preaggs: lw.preaggs}
	c.priceFilters(sched)
	return c, nil
}

// Execute runs the QEP.
func (c *Compiled) Execute(ctx *qef.Context) (*ops.Relation, error) {
	return c.root.execute(ctx, filterSet{})
}

// physNode is a physical operator tree node.
type physNode interface {
	// execute runs the node with fs, the join filters filled so far.
	execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error)
	fields() []plan.Field
	estRows() int64
	// annotate registers the node's operator span(s) under parent and
	// returns the span ID representing the node's output.
	annotate(reg *spanReg, parent int) int
}

// ---------------------------------------------------------------------------
// Pipeline: scan [+filter] [+project] [+aggregate] executed as one task.

type pipeStepKind int

const (
	stepFilter pipeStepKind = iota
	stepProject
	// stepJoinFilter tests the rows the pipeline collects against the
	// bit-vector filter of a join it feeds, directly or through the joins
	// between them (joinfilter.go). The join arms it at execute time, once
	// its build side has run (joinFilter.fill); unarmed, it passes every row
	// and bills nothing.
	stepJoinFilter
	// stepPreAgg pre-aggregates each scan unit for the partitioned group-by
	// the pipeline feeds (preagg.go); the compiler arms it, and it is the
	// pipeline's last step.
	stepPreAgg
)

type pipeStep struct {
	kind pipeStepKind
	pred ops.Predicate
	sel  float64 // pred's selectivity estimate
	proj []ops.ProjCol
	eval bool         // some output of proj is evaluated, not kept
	prog *ops.Program // the expressions pred or proj reads
	jf   *joinFilter  // a stepJoinFilter's schedule edge
	pre  *preAgg      // a stepPreAgg's table
}

type terminalKind int

const (
	termCollect terminalKind = iota
	termScalarAgg
	termGroupBy
)

type pipelineNode struct {
	// Source: either a base-table snapshot or an upstream physical node.
	snap     *storage.Snapshot
	scanCols []int
	input    physNode

	cols  []colInfo
	steps []pipeStep
	est   int64

	terminal  terminalKind
	aggSpecs  []ops.AggSpec
	aggProg   *ops.Program // the aggregate arguments
	groupCols []int
	groups    int64 // the group count estimate (NDV) of termGroupBy
	finals    []finalSpec
	outFields []plan.Field

	// Operator span IDs assigned by annotate: the source, each step, and
	// the terminal.
	srcID   int
	stepIDs []int
	termID  int
}

func (p *pipelineNode) fields() []plan.Field {
	if p.terminal != termCollect {
		return p.outFields
	}
	fs := make([]plan.Field, len(p.cols))
	for i, c := range p.cols {
		fs[i] = c.field
	}
	return fs
}

func (p *pipelineNode) estRows() int64 {
	switch p.terminal {
	case termScalarAgg:
		return 1
	case termGroupBy:
		return p.groups
	}
	return p.est
}

// maxGroups is the low-NDV group table's capacity: four times the group
// count estimate plus slack, within the collective DMEM bound (§5.4).
func (p *pipelineNode) maxGroups() int {
	return min(int(p.groups*4)+64, 4*lowNDVMaxGroups)
}

// prunePredicate returns the conjunction of filter predicates that apply
// directly to the scanned tile layout: every stepFilter before the first
// projection (projections re-index columns, so predicates beyond one address
// a different layout). The scan uses it to zone-reject whole chunks; nil
// means no prunable predicate.
func (p *pipelineNode) prunePredicate() ops.Predicate {
	if p.snap == nil {
		return nil
	}
	var preds []ops.Predicate
	for _, s := range p.steps {
		if s.kind != stepFilter {
			break
		}
		preds = append(preds, s.pred)
	}
	switch len(preds) {
	case 0:
		return nil
	case 1:
		return preds[0]
	}
	return &ops.And{Preds: preds}
}

// zoneSurvivingRows returns the number of rows in chunks the current prune
// predicate cannot reject — an upper bound on the rows any downstream filter
// can pass, which sharpens the selectivity-based cardinality estimate. ok is
// false when the pipeline has no prunable base-table predicate.
func (p *pipelineNode) zoneSurvivingRows() (int64, bool) {
	if p.prunePredicate() == nil {
		return 0, false
	}
	var rows int64
	p.scannedChunks(func(_ *storage.ChunkView, live int64) { rows += live })
	return rows, true
}

// scannedChunks calls fn with every chunk of the scan the current prune
// predicate cannot reject, and the chunk's live (not deleted) rows.
func (p *pipelineNode) scannedChunks(fn func(cv *storage.ChunkView, live int64)) {
	prune := p.prunePredicate()
	chunks := p.snap.Chunks()
	for i := range chunks {
		cv := &chunks[i]
		if prune != nil && ops.ZoneReject(prune, ops.TileZone(cv, p.scanCols)) {
			continue
		}
		n := int64(cv.Rows)
		if cv.Deleted != nil {
			n -= int64(cv.Deleted.Count())
		}
		fn(cv, n)
	}
}

// stepInCols returns the column count entering each pipeline step: the
// scanned width, narrowed by each projection as the walk proceeds. It sizes
// the MaterializeOp the compiler inserts upstream of a projection that
// evaluates.
func (p *pipelineNode) stepInCols() []int {
	cur := p.srcCols()
	counts := make([]int, len(p.steps))
	for i, s := range p.steps {
		counts[i] = cur
		if s.kind == stepProject {
			cur = len(s.proj)
		}
	}
	return counts
}

// srcRows is the row count the pipeline's source streams: a scan's rows in
// the chunks its filters' zone maps cannot reject, or its input's estimate.
func (p *pipelineNode) srcRows() int64 {
	if p.snap == nil {
		return p.input.estRows()
	}
	if zr, ok := p.zoneSurvivingRows(); ok {
		return zr
	}
	return int64(p.snap.TotalRows())
}

// srcCols is the column count the pipeline's source streams.
func (p *pipelineNode) srcCols() int {
	if p.snap == nil && p.input != nil {
		return len(p.input.fields())
	}
	return len(p.scanCols)
}

// opReqs describes the pipeline to the task former for tile sizing, with
// filterBytes (by step) the resident bytes of each armed join filter; a step
// past its end, or of 0 bytes, is not armed.
func (p *pipelineNode) opReqs(filterBytes []int) []OpReq {
	rowBytes := 8 * len(p.cols)
	// The scan double-buffers every SOURCE column in DMEM; a projection may
	// narrow p.cols well below that, so size the scan from what it streams,
	// not from the pipeline's output width.
	scanRowBytes := 8 * p.srcCols()
	reqs := []OpReq{{
		DMEMSize:       func(rows int) int { return 2 * rows * scanRowBytes },
		OutBytesPerRow: rowBytes,
		Selectivity:    1,
	}}
	inCols := p.stepInCols()
	for i, s := range p.steps {
		s := s
		switch {
		case s.kind == stepFilter:
			f := &ops.FilterOp{Pred: s.pred, Prog: s.prog}
			reqs = append(reqs, OpReq{
				DMEMSize:       f.DMEMSize,
				OutBytesPerRow: rowBytes,
				Selectivity:    s.sel,
			})
		case s.kind == stepJoinFilter && i < len(filterBytes) && filterBytes[i] > 0:
			f, resident := &ops.FilterOp{Pred: &ops.JoinFilter{}}, filterBytes[i]
			reqs = append(reqs, OpReq{
				DMEMSize:       func(rows int) int { return f.DMEMSize(rows) + resident },
				OutBytesPerRow: rowBytes,
				Selectivity:    1,
			})
		case s.kind == stepPreAgg:
			reqs = append(reqs, OpReq{
				DMEMSize:       s.pre.op.DMEMSize,
				OutBytesPerRow: rowBytes,
				Selectivity:    1,
			})
		case s.kind == stepProject:
			if s.eval {
				// The materialization the compiler inserts upstream of the
				// projection claims DMEM too (it holds every gathered input
				// column at once).
				m := &ops.MaterializeOp{RowBytes: 8 * inCols[i]}
				reqs = append(reqs, OpReq{
					DMEMSize:       m.DMEMSize,
					OutBytesPerRow: 8 * inCols[i],
					Selectivity:    1,
				})
			}
			pr := &ops.ProjectOp{Cols: s.proj, Prog: s.prog}
			reqs = append(reqs, OpReq{
				DMEMSize:       pr.DMEMSize,
				OutBytesPerRow: len(s.proj) * 8,
				Selectivity:    1,
			})
		}
	}
	switch p.terminal {
	case termCollect:
		nOut := len(p.cols)
		reqs = append(reqs, OpReq{
			// One widened 8-byte staging vector per output column
			// (CollectSink.DMEMSize).
			DMEMSize:       func(rows int) int { return nOut * 8 * rows },
			OutBytesPerRow: rowBytes,
			Selectivity:    1,
		})
	case termScalarAgg:
		a := &ops.ScalarAggOp{Specs: p.aggSpecs, Prog: p.aggProg}
		reqs = append(reqs, OpReq{DMEMSize: a.DMEMSize, OutBytesPerRow: 8, Selectivity: 0})
	case termGroupBy:
		g := &ops.GroupByOp{GroupCols: p.groupCols, Specs: p.aggSpecs, Prog: p.aggProg, MaxGroups: p.maxGroups()}
		reqs = append(reqs, OpReq{DMEMSize: g.DMEMSize, OutBytesPerRow: 8, Selectivity: 0})
	}
	return reqs
}

// execute runs the pipeline. Its join filter steps test the filters fs
// holds for them, which are resident in DMEM beside the tiles; the rows they
// drop add to ops_join_filter_dropped_rows_total.
func (p *pipelineNode) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	jfs, resident := p.armed(fs, nil)
	tileRows := ChooseTileRows(p.opReqs(resident))

	var inputRel *ops.Relation
	if p.input != nil {
		var err error
		inputRel, err = p.input.execute(ctx, fs)
		if err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, jf := range jfs {
			if jf != nil {
				ctx.CountMetric("ops_join_filter_dropped_rows_total", jf.Dropped())
			}
		}
	}()

	// Shared terminal state.
	var sink *ops.CollectSink
	var merger *ops.GroupMerger
	switch p.terminal {
	case termCollect:
		sink = ops.NewCollectSink(opsCols(p.fields()))
	default: // scalar aggregates merge as the one group of zero keys
		merger = ops.NewGroupMerger(len(p.groupCols), p.aggSpecs)
	}

	// Profiling spans (all nil when ctx.Prof is off): each chain edge gets
	// a span wrapper installed once at chain-build time, and the scans run
	// under the source span so per-tile DMS reads land there.
	prof := ctx.Prof
	srcSpan := prof.Span(p.srcID)
	termSpan := prof.Span(p.termID)
	upSpan := func(i int) *obs.OpSpan { // span upstream of steps[i]
		if i == 0 {
			return srcSpan
		}
		return prof.Span(p.stepIDs[i-1])
	}

	inCols := p.stepInCols()
	chainFor := func() qef.Operator {
		var term qef.Operator
		switch p.terminal {
		case termCollect:
			term = sink
		case termScalarAgg:
			term = &ops.ScalarAggOp{Specs: p.aggSpecs, Prog: p.aggProg, Merger: merger}
		case termGroupBy:
			term = &ops.GroupByOp{GroupCols: p.groupCols, Specs: p.aggSpecs, Prog: p.aggProg, MaxGroups: p.maxGroups(), Merger: merger}
		}
		termUp := srcSpan
		if len(p.steps) > 0 {
			termUp = prof.Span(p.stepIDs[len(p.steps)-1])
		}
		head := qef.WithSpan(term, termSpan, termUp)
		for i := len(p.steps) - 1; i >= 0; i-- {
			s := p.steps[i]
			switch s.kind {
			case stepProject:
				head = &ops.ProjectOp{Cols: s.proj, Prog: s.prog, Next: head}
				if s.eval {
					// Expressions evaluate densely; compact sparse selections
					// first (late materialization ends here).
					head = &ops.MaterializeOp{Next: head, RowBytes: 8 * inCols[i]}
				}
			case stepFilter:
				head = &ops.FilterOp{Pred: s.pred, Prog: s.prog, Next: head}
			case stepJoinFilter:
				// Unarmed, the step is its span alone: rows cross it and
				// nothing runs inside it.
				if jfs != nil && jfs[i] != nil {
					head = &ops.FilterOp{Pred: jfs[i], Next: head}
				}
			case stepPreAgg:
				op := s.pre.op // each core's chain holds its own table
				op.Next = head
				head = &op
			}
			head = qef.WithSpan(head, prof.Span(p.stepIDs[i]), upSpan(i))
		}
		return head
	}

	out, err := underSpan(ctx, srcSpan, termSpan, 0, func() (*ops.Relation, error) {
		var err error
		if p.snap != nil {
			err = ops.TableScan(ctx, p.snap, p.scanCols, tileRows, p.prunePredicate(), chainFor)
		} else {
			err = ops.RelationScan(ctx, inputRel, tileRows, chainFor)
		}
		if err != nil {
			return nil, err
		}
		if p.terminal == termCollect {
			return sink.Relation(), nil
		}
		return finalize(merger.Relation(make([]ops.Col, len(p.groupCols)), nil), len(p.groupCols), p.finals, p.outFields)
	})
	if p.terminal == termGroupBy && errors.Is(err, ops.ErrGroupOverflow) {
		return p.executeGroupPartFallback(ctx, fs)
	}
	return out, err
}

// executeGroupPartFallback is the §5.4 runtime adaptation: the statistics
// underestimated the group count and the low-NDV DMEM table overflowed, so
// materialize the pipeline input and re-group with the partitioned high-NDV
// strategy (which re-partitions itself on further overflow).
func (p *pipelineNode) executeGroupPartFallback(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	// Row-conservation edges no longer hold after the aborted first
	// attempt's partial ticks; cycle and byte attribution stay exact
	// because every work unit still runs under a span.
	ctx.Prof.MarkAdapted()
	ctx.CountMetric("qcomp_group_overflow_fallbacks", 1)
	in := *p
	in.terminal = termCollect
	ndv := max(int64(p.maxGroups())*4, p.est)
	gp := &groupPartNode{
		input:     lowerPipeline(&in),
		groupCols: p.groupCols,
		specs:     p.aggSpecs,
		prog:      p.aggProg,
		finals:    p.finals,
		out:       p.outFields,
		ndv:       ndv,
		// Reuse the terminal's span: the fallback is the same logical
		// group-by, re-executed with the partitioned strategy.
		opID: p.termID,
	}
	return gp.execute(ctx, fs)
}

// ---------------------------------------------------------------------------
// Compilation.

// lowering is one compile of a plan: the materialized relations spliced in
// for some of its nodes, the row estimate of every node lowered so far, the
// joins in the order they were lowered (bottom-up) and the group-bys given a
// pre-aggregation.
type lowering struct {
	in      map[plan.Node]*ops.Relation
	rows    map[plan.Node]int64
	joins   []*joinNode
	preaggs map[*plan.GroupBy]*preAgg
}

// node lowers n and records its row estimate as it leaves the lowering: a
// parent may extend the same pipeline, which changes the pipeline's estimate
// but not n's. The record is floored at one row, so the cost model prices an
// empty input at its per-row terms rather than at nothing.
func (lw *lowering) node(n plan.Node) (physNode, error) {
	pn, err := lw.lower(n)
	if err != nil {
		return nil, err
	}
	lw.rows[n] = max(pn.estRows(), 1)
	return pn, nil
}

func (lw *lowering) lower(n plan.Node) (physNode, error) {
	if rel, ok := lw.in[n]; ok {
		return newRelationNode(rel), nil
	}
	switch node := n.(type) {
	case *plan.Scan:
		return compileScan(node), nil
	case *plan.Filter:
		return compileFilter(node, lw)
	case *plan.Project:
		return compileProject(node, lw)
	case *plan.GroupBy:
		return compileGroupBy(node, lw)
	case *plan.Join:
		return compileJoin(node, lw)
	case *plan.Sort:
		child, err := lw.node(node.Input)
		if err != nil {
			return nil, err
		}
		return &sortNode{input: child, keys: node.Keys, k: -1}, nil
	case *plan.Limit:
		child, err := lw.node(node.Input)
		if err != nil {
			return nil, err
		}
		if s, ok := child.(*sortNode); ok && s.k < 0 {
			s.k = node.K // Sort + Limit fuses into the vectorized Top-K operator
			return s, nil
		}
		return &limitNode{input: child, k: node.K}, nil
	case *plan.SetOp:
		l, err := lw.node(node.Left)
		if err != nil {
			return nil, err
		}
		r, err := lw.node(node.Right)
		if err != nil {
			return nil, err
		}
		return &setopNode{left: l, right: r, kind: node.Kind}, nil
	case *plan.Window:
		child, err := lw.node(node.Input)
		if err != nil {
			return nil, err
		}
		return &windowNode{input: child, spec: node}, nil
	}
	return nil, fmt.Errorf("qcomp: unsupported plan node %T", n)
}

func compileScan(s *plan.Scan) *pipelineNode {
	snap := s.Table.Snapshot(s.SCN)
	return &pipelineNode{snap: snap, scanCols: s.Cols, cols: scanColumns(s), est: int64(snap.TotalRows())}
}

// scanColumns is a scan's output columns with the table statistics of each.
func scanColumns(s *plan.Scan) []colInfo {
	cols := make([]colInfo, len(s.Cols))
	stats := s.Table.Stats()
	for i, c := range s.Cols {
		def := s.Table.Schema().Col(c)
		cols[i] = colInfo{
			field: plan.Field{Name: def.Name, Type: def.Type, Dict: s.Table.Meta(c).Dict},
		}
		if stats != nil && c < len(stats.Cols) {
			cs := stats.Cols[c]
			cols[i].stats = &cs
		}
	}
	return cols
}

// asPipeline returns the node as an extensible pipeline: either the node
// itself (when it is a pipeline without terminal aggregation) or a new
// pipeline reading the node's materialized output.
func asPipeline(pn physNode) *pipelineNode {
	if p, ok := pn.(*pipelineNode); ok && p.terminal == termCollect {
		return p
	}
	fs := pn.fields()
	cols := make([]colInfo, len(fs))
	for i, f := range fs {
		cols[i] = colInfo{field: f}
	}
	return &pipelineNode{input: pn, cols: cols, est: pn.estRows()}
}

// lowerPipeline is p where it does work (a scan, a filter, an evaluation, a
// join filter, a pre-aggregation or an aggregate); otherwise p would stream
// a materialized relation only to collect some of its columns back, and is
// the header move over its input instead: a relation is materialized once.
func lowerPipeline(p *pipelineNode) physNode {
	if p.input == nil || p.terminal != termCollect {
		return p
	}
	for _, s := range p.steps {
		if s.kind != stepProject || s.eval {
			return p
		}
	}
	keep := make([]int, len(p.cols))
	for i := range keep {
		keep[i] = p.scanCol(i)
	}
	return &headerMove{input: p.input, keep: keep, fs: p.fields()}
}

func compileFilter(f *plan.Filter, lw *lowering) (physNode, error) {
	child, err := lw.node(f.Input)
	if err != nil {
		return nil, err
	}
	p := asPipeline(child)
	ec := newExprc(p.cols)
	pred, sel, err := ec.pred(f.Pred)
	if err != nil {
		return nil, err
	}
	p.steps = append(p.steps, pipeStep{kind: stepFilter, pred: pred, sel: sel, prog: ec.b.Program()})
	est := int64(float64(p.est) * sel)
	// Zone maps give a hard upper bound: rows in chunks the conjunction
	// cannot reject. Take it when it is sharper than the selectivity guess.
	if zr, ok := p.zoneSurvivingRows(); ok && zr < est {
		est = zr
	}
	p.est = max(est, 1)
	return p, nil
}

// compileProject appends a projection step whose outputs are pr's, in plan
// order: a bare column reference is kept (a header move, billed nothing),
// and anything else is evaluated.
func compileProject(pr *plan.Project, lw *lowering) (physNode, error) {
	child, err := lw.node(pr.Input)
	if err != nil {
		return nil, err
	}
	p := asPipeline(child)
	step := pipeStep{kind: stepProject, proj: make([]ops.ProjCol, len(pr.Exprs))}
	cols := make([]colInfo, len(pr.Exprs))
	ec := newExprc(p.cols)
	for i, e := range pr.Exprs {
		name := ""
		if i < len(pr.Names) {
			name = pr.Names[i]
		}
		if cr, ok := e.(*plan.ColRef); ok {
			step.proj[i].Keep, cols[i] = cr.Idx, p.cols[cr.Idx]
			if name != "" {
				cols[i].field.Name = name
			}
			continue
		}
		node, err := ec.node(e)
		if err != nil {
			return nil, err
		}
		step.proj[i] = ops.ProjCol{Keep: -1, Node: node}
		step.eval = true
		if name == "" {
			name = e.String()
		}
		cols[i] = colInfo{field: plan.Field{Name: name, Type: e.Type()}}
	}
	step.prog = ec.b.Program()
	p.steps = append(p.steps, step)
	p.cols = cols
	return lowerPipeline(p), nil
}

// lowNDVMaxGroups is the largest group count handled by the in-pipeline
// (low NDV) group-by: the merged table must fit the collective DMEM of the
// 32 dpCores (§5.4).
const lowNDVMaxGroups = 4096

func compileGroupBy(g *plan.GroupBy, lw *lowering) (physNode, error) {
	child, err := lw.node(g.Input)
	if err != nil {
		return nil, err
	}
	p := asPipeline(child)

	groupCols := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		cr, ok := k.(*plan.ColRef)
		if !ok {
			return nil, fmt.Errorf("qcomp: group key %d is not a column (normalize first)", i)
		}
		groupCols[i] = cr.Idx
	}

	lowered, finals := lowerAggs(g.Aggs)
	specs := make([]ops.AggSpec, len(lowered))
	ec := newExprc(p.cols)
	for i, a := range lowered {
		specs[i] = ops.AggSpec{Kind: aggKind(a.Kind), Name: a.Name}
		if a.Kind == plan.CountStar {
			continue
		}
		if specs[i].Arg, err = ec.node(a.Arg); err != nil {
			return nil, err
		}
	}
	prog := ec.b.Program()

	outFields := (&plan.GroupBy{Input: schemaOnly(p.fields()), Keys: g.Keys, Aggs: g.Aggs}).Schema()

	// NDV estimate drives the strategy choice (§5.4).
	ndv := int64(1)
	for _, gc := range groupCols {
		if st := p.cols[gc].stats; st != nil && st.NDV > 0 {
			ndv *= st.NDV
		} else {
			ndv *= 64 // unknown: assume moderate
		}
		if ndv > p.est {
			ndv = p.est
			break
		}
	}

	if len(groupCols) == 0 {
		p.terminal = termScalarAgg
		p.aggSpecs = specs
		p.aggProg = prog
		p.finals = finals
		p.outFields = outFields
		return p, nil
	}
	if ndv <= lowNDVMaxGroups {
		p.terminal = termGroupBy
		p.groupCols = groupCols
		p.aggSpecs = specs
		p.aggProg = prog
		p.finals = finals
		p.outFields = outFields
		p.groups = ndv
		return p, nil
	}
	// High NDV: partitioned group-by over the materialized child, which
	// pre-aggregates each scan unit first where its zone maps bound the keys.
	gp := &groupPartNode{
		groupCols: groupCols,
		specs:     specs,
		prog:      prog,
		finals:    finals,
		out:       outFields,
		ndv:       ndv,
	}
	if pa := p.addPreAgg(groupCols, specs, prog, gp.swRounds()); pa != nil {
		lw.preaggs[g] = pa
		gp.groupCols, gp.specs, gp.prog = pa.merge()
	}
	gp.input = lowerPipeline(p)
	return gp, nil
}

// schemaOnly wraps fields as a leaf node for Schema() computations.
type fieldsNode struct{ fs []plan.Field }

func (f *fieldsNode) Schema() []plan.Field  { return f.fs }
func (f *fieldsNode) Children() []plan.Node { return nil }
func (f *fieldsNode) String() string        { return "fields" }

func schemaOnly(fs []plan.Field) plan.Node { return &fieldsNode{fs: fs} }
