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
}

// Compile lowers a logical plan into a physical QEP.
func Compile(n plan.Node) (*Compiled, error) { return CompileWithInputs(n, nil) }

// CompileWithInputs lowers a plan some of whose subtrees are already
// materialized relations: a node found in inputs compiles to a relation
// leaf instead of being lowered recursively. The distributed executor uses
// this to splice exchange outputs (shuffled/broadcast/gathered relations)
// under residual plan fragments.
func CompileWithInputs(n plan.Node, inputs map[plan.Node]*ops.Relation) (*Compiled, error) {
	pn, err := compileNode(n, inputs)
	if err != nil {
		return nil, err
	}
	reg := &spanReg{}
	pn.annotate(reg, -1)
	return &Compiled{root: pn, spanDefs: reg.defs}, nil
}

// Execute runs the QEP.
func (c *Compiled) Execute(ctx *qef.Context) (*ops.Relation, error) {
	return c.root.execute(ctx)
}

// physNode is a physical operator tree node.
type physNode interface {
	execute(ctx *qef.Context) (*ops.Relation, error)
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
)

type pipeStep struct {
	kind  pipeStepKind
	preds []ops.Predicate
	exprs []ops.Expr
	keep  []int
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
	groupCols []int
	maxGroups int
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
	if p.terminal == termGroupBy || p.terminal == termScalarAgg {
		if p.maxGroups > 0 {
			return int64(p.maxGroups)
		}
		return 1
	}
	return p.est
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
		preds = append(preds, s.preds...)
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
	prune := p.prunePredicate()
	if prune == nil {
		return 0, false
	}
	var rows int64
	chunks := p.snap.Chunks()
	for i := range chunks {
		cv := &chunks[i]
		if ops.ZoneReject(prune, ops.TileZone(cv, p.scanCols)) {
			continue
		}
		n := int64(cv.Rows)
		if cv.Deleted != nil {
			n -= int64(cv.Deleted.Count())
		}
		rows += n
	}
	return rows, true
}

// stepInCols returns the column count entering each pipeline step: the
// scanned width, narrowed by each projection as the walk proceeds. It sizes
// the MaterializeOp the compiler inserts upstream of every projection.
func (p *pipelineNode) stepInCols() []int {
	cur := len(p.scanCols)
	if p.snap == nil && p.input != nil {
		cur = len(p.input.fields())
	}
	counts := make([]int, len(p.steps))
	for i, s := range p.steps {
		counts[i] = cur
		if s.kind == stepProject {
			cur = len(s.keep) + len(s.exprs)
		}
	}
	return counts
}

// opReqs describes the pipeline to the task former for tile sizing.
func (p *pipelineNode) opReqs() []OpReq {
	rowBytes := 8 * len(p.cols)
	// The scan double-buffers every SOURCE column in DMEM; a projection may
	// narrow p.cols well below that, so size the scan from what it streams,
	// not from the pipeline's output width.
	scanned := len(p.scanCols)
	if p.snap == nil && p.input != nil {
		scanned = len(p.input.fields())
	}
	scanRowBytes := 8 * scanned
	reqs := []OpReq{{
		DMEMSize:       func(rows int) int { return 2 * rows * scanRowBytes },
		OutBytesPerRow: rowBytes,
		Selectivity:    1,
	}}
	inCols := p.stepInCols()
	for i, s := range p.steps {
		s := s
		if s.kind == stepFilter {
			f := &ops.FilterOp{Preds: s.preds}
			sel := 1.0
			for _, pr := range s.preds {
				sel *= pr.EstSelectivity()
			}
			reqs = append(reqs, OpReq{
				DMEMSize:       f.DMEMSize,
				OutBytesPerRow: rowBytes,
				Selectivity:    sel,
			})
		} else {
			// The materialization the compiler inserts upstream of the
			// projection claims DMEM too (it holds every gathered input
			// column at once).
			m := &ops.MaterializeOp{RowBytes: 8 * inCols[i]}
			reqs = append(reqs, OpReq{
				DMEMSize:       m.DMEMSize,
				OutBytesPerRow: 8 * inCols[i],
				Selectivity:    1,
			})
			pr := &ops.ProjectOp{Exprs: s.exprs, Keep: s.keep}
			reqs = append(reqs, OpReq{
				DMEMSize:       pr.DMEMSize,
				OutBytesPerRow: (len(s.exprs) + len(s.keep)) * 8,
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
		a := &ops.ScalarAggOp{Specs: p.aggSpecs}
		reqs = append(reqs, OpReq{DMEMSize: a.DMEMSize, OutBytesPerRow: 8, Selectivity: 0})
	case termGroupBy:
		g := &ops.GroupByOp{GroupCols: p.groupCols, Specs: p.aggSpecs, MaxGroups: p.maxGroups}
		reqs = append(reqs, OpReq{DMEMSize: g.DMEMSize, OutBytesPerRow: 8, Selectivity: 0})
	}
	return reqs
}

func (p *pipelineNode) execute(ctx *qef.Context) (*ops.Relation, error) {
	tileRows := ChooseTileRows(p.opReqs())

	var inputRel *ops.Relation
	if p.input != nil {
		var err error
		inputRel, err = p.input.execute(ctx)
		if err != nil {
			return nil, err
		}
	}

	// Shared terminal state.
	var sink *ops.CollectSink
	var merger *ops.GroupMerger
	switch p.terminal {
	case termCollect:
		outCols := make([]ops.Col, len(p.cols))
		for i, c := range p.cols {
			outCols[i] = ops.Col{Name: c.field.Name, Type: c.field.Type, Dict: c.field.Dict}
		}
		sink = ops.NewCollectSink(outCols)
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
			term = &ops.ScalarAggOp{Specs: p.aggSpecs, Merger: merger}
		case termGroupBy:
			term = &ops.GroupByOp{GroupCols: p.groupCols, Specs: p.aggSpecs, MaxGroups: p.maxGroups, Merger: merger}
		}
		termUp := srcSpan
		if len(p.steps) > 0 {
			termUp = prof.Span(p.stepIDs[len(p.steps)-1])
		}
		head := qef.WithSpan(term, termSpan, termUp)
		for i := len(p.steps) - 1; i >= 0; i-- {
			s := p.steps[i]
			if s.kind == stepProject {
				head = &ops.ProjectOp{Exprs: s.exprs, Keep: s.keep, Next: head}
				// Projection evaluates densely; compact sparse selections
				// first (late materialization ends here).
				head = &ops.MaterializeOp{Next: head, RowBytes: 8 * inCols[i]}
			} else {
				head = &ops.FilterOp{Preds: s.preds, Next: head}
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
		return p.executeGroupPartFallback(ctx)
	}
	return out, err
}

// executeGroupPartFallback is the §5.4 runtime adaptation: the statistics
// underestimated the group count and the low-NDV DMEM table overflowed, so
// materialize the pipeline input and re-group with the partitioned high-NDV
// strategy (which re-partitions itself on further overflow).
func (p *pipelineNode) executeGroupPartFallback(ctx *qef.Context) (*ops.Relation, error) {
	// Row-conservation edges no longer hold after the aborted first
	// attempt's partial ticks; cycle and byte attribution stay exact
	// because every work unit still runs under a span.
	ctx.Prof.MarkAdapted()
	ctx.CountMetric("qcomp_group_overflow_fallbacks", 1)
	in := *p
	in.terminal = termCollect
	ndv := int64(p.maxGroups) * 4
	if p.est > ndv {
		ndv = p.est
	}
	gp := &groupPartNode{
		input:     &in,
		groupCols: p.groupCols,
		specs:     p.aggSpecs,
		finals:    p.finals,
		out:       p.outFields,
		ndv:       ndv,
		// Reuse the terminal's span: the fallback is the same logical
		// group-by, re-executed with the partitioned strategy.
		opID: p.termID,
	}
	return gp.execute(ctx)
}

// ---------------------------------------------------------------------------
// Compilation.

func compileNode(n plan.Node, in map[plan.Node]*ops.Relation) (physNode, error) {
	if rel, ok := in[n]; ok {
		return newRelationNode(rel), nil
	}
	switch node := n.(type) {
	case *plan.Scan:
		return compileScan(node), nil
	case *plan.Filter:
		return compileFilter(node, in)
	case *plan.Project:
		return compileProject(node, in)
	case *plan.GroupBy:
		return compileGroupBy(node, in)
	case *plan.Join:
		return compileJoin(node, in)
	case *plan.Sort:
		child, err := compileNode(node.Input, in)
		if err != nil {
			return nil, err
		}
		return &sortNode{input: child, keys: node.Keys}, nil
	case *plan.Limit:
		child, err := compileNode(node.Input, in)
		if err != nil {
			return nil, err
		}
		if s, ok := child.(*sortNode); ok {
			// Sort + Limit fuses into the vectorized Top-K operator.
			return &topkNode{input: s.input, keys: s.keys, k: node.K}, nil
		}
		return &limitNode{input: child, k: node.K}, nil
	case *plan.SetOp:
		l, err := compileNode(node.Left, in)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(node.Right, in)
		if err != nil {
			return nil, err
		}
		return &setopNode{left: l, right: r, kind: node.Kind}, nil
	case *plan.Window:
		child, err := compileNode(node.Input, in)
		if err != nil {
			return nil, err
		}
		return &windowNode{input: child, spec: node}, nil
	}
	return nil, fmt.Errorf("qcomp: unsupported plan node %T", n)
}

func compileScan(s *plan.Scan) *pipelineNode {
	snap := s.Table.Snapshot(s.SCN)
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
	return &pipelineNode{snap: snap, scanCols: s.Cols, cols: cols, est: int64(snap.TotalRows())}
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

func compileFilter(f *plan.Filter, in map[plan.Node]*ops.Relation) (physNode, error) {
	child, err := compileNode(f.Input, in)
	if err != nil {
		return nil, err
	}
	p := asPipeline(child)
	pred, err := compilePred(f.Pred, p.cols)
	if err != nil {
		return nil, err
	}
	p.steps = append(p.steps, pipeStep{kind: stepFilter, preds: []ops.Predicate{pred}})
	est := int64(float64(p.est) * pred.EstSelectivity())
	// Zone maps give a hard upper bound: rows in chunks the conjunction
	// cannot reject. Take it when it is sharper than the selectivity guess.
	if zr, ok := p.zoneSurvivingRows(); ok && zr < est {
		est = zr
	}
	if est < 1 {
		est = 1
	}
	p.est = est
	return p, nil
}

func compileProject(pr *plan.Project, in map[plan.Node]*ops.Relation) (physNode, error) {
	child, err := compileNode(pr.Input, in)
	if err != nil {
		return nil, err
	}
	p := asPipeline(child)
	step := pipeStep{kind: stepProject}
	newCols := make([]colInfo, 0, len(pr.Exprs))
	// Pure column references become zero-copy keeps; everything else is a
	// computed expression. Keeps must precede exprs in the output tile
	// (ops.ProjectOp emits Keep columns first).
	type outSlot struct {
		keep int // >= 0: index into keep outputs
		expr int // >= 0: index into expr outputs
	}
	slots := make([]outSlot, len(pr.Exprs))
	for i, e := range pr.Exprs {
		name := ""
		if i < len(pr.Names) {
			name = pr.Names[i]
		}
		if cr, ok := e.(*plan.ColRef); ok {
			slots[i] = outSlot{keep: len(step.keep), expr: -1}
			step.keep = append(step.keep, cr.Idx)
			f := p.cols[cr.Idx].field
			if name != "" {
				f.Name = name
			}
			newCols = append(newCols, colInfo{field: f, stats: p.cols[cr.Idx].stats})
			continue
		}
		ce, err := compileExpr(e, p.cols)
		if err != nil {
			return nil, err
		}
		slots[i] = outSlot{keep: -1, expr: len(step.exprs)}
		step.exprs = append(step.exprs, ce)
		fname := name
		if fname == "" {
			fname = e.String()
		}
		newCols = append(newCols, colInfo{field: plan.Field{Name: fname, Type: e.Type()}})
	}
	// Tile layout after ProjectOp: keeps then exprs; remap newCols to that
	// physical order and remember the logical order for output naming.
	phys := make([]colInfo, len(newCols))
	for i, s := range slots {
		if s.expr < 0 {
			phys[s.keep] = newCols[i]
		} else {
			phys[len(step.keep)+s.expr] = newCols[i]
		}
	}
	// To keep logical order == physical order (parents index by schema
	// position), require that pure ColRefs precede computed exprs; when
	// they do not, fall back to compiling every output as an expression.
	ordered := true
	for i := 1; i < len(slots); i++ {
		if slots[i-1].expr >= 0 && slots[i].expr < 0 {
			ordered = false
			break
		}
	}
	if !ordered {
		step.keep = nil
		step.exprs = step.exprs[:0]
		phys = phys[:0]
		for i, e := range pr.Exprs {
			ce, err := compileExpr(e, p.cols)
			if err != nil {
				return nil, err
			}
			step.exprs = append(step.exprs, ce)
			phys = append(phys, newCols[i])
		}
	}
	p.steps = append(p.steps, step)
	p.cols = phys
	return p, nil
}

// lowNDVMaxGroups is the largest group count handled by the in-pipeline
// (low NDV) group-by: the merged table must fit the collective DMEM of the
// 32 dpCores (§5.4).
const lowNDVMaxGroups = 4096

func compileGroupBy(g *plan.GroupBy, in map[plan.Node]*ops.Relation) (physNode, error) {
	child, err := compileNode(g.Input, in)
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
	for i, a := range lowered {
		specs[i] = ops.AggSpec{Kind: aggKind(a.Kind), Name: a.Name}
		if a.Kind == plan.CountStar {
			continue
		}
		if specs[i].Expr, err = compileExpr(a.Arg, p.cols); err != nil {
			return nil, err
		}
	}

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
		p.finals = finals
		p.outFields = outFields
		p.maxGroups = 1
		return p, nil
	}
	if ndv <= lowNDVMaxGroups {
		p.terminal = termGroupBy
		p.groupCols = groupCols
		p.aggSpecs = specs
		p.finals = finals
		p.outFields = outFields
		p.maxGroups = int(ndv*4) + 64
		if p.maxGroups > 4*lowNDVMaxGroups {
			p.maxGroups = 4 * lowNDVMaxGroups
		}
		return p, nil
	}
	// High NDV: partitioned group-by over the materialized child.
	return &groupPartNode{
		input:     p,
		groupCols: groupCols,
		specs:     specs,
		finals:    finals,
		out:       outFields,
		ndv:       ndv,
	}, nil
}

// schemaOnly wraps fields as a leaf node for Schema() computations.
type fieldsNode struct{ fs []plan.Field }

func (f *fieldsNode) Schema() []plan.Field  { return f.fs }
func (f *fieldsNode) Children() []plan.Node { return nil }
func (f *fieldsNode) String() string        { return "fields" }

func schemaOnly(fs []plan.Field) plan.Node { return &fieldsNode{fs: fs} }
