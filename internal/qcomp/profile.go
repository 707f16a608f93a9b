package qcomp

import (
	"fmt"

	"rapid/internal/obs"
)

// spanReg assigns stable operator IDs to the physical plan at compile
// time. IDs are registration order (consumers before producers, so a
// span's parent always has a smaller ID), and one obs.SpanDef is recorded
// per operator for the executor to allocate profile spans from.
type spanReg struct {
	defs []obs.SpanDef
}

func (r *spanReg) add(parent int, name, detail string, kind obs.SpanKind, conserves bool) int {
	id := len(r.defs)
	r.defs = append(r.defs, obs.SpanDef{
		ID: id, Parent: parent, Name: name, Detail: detail, Kind: kind, Conserves: conserves,
	})
	return id
}

// SpanDefs returns the compiled plan's operator span definitions; a
// per-execution obs.Profile is allocated from them.
func (c *Compiled) SpanDefs() []obs.SpanDef { return c.spanDefs }

// annotate implementations: each physical node registers one span per
// operator it executes and annotates its children below itself, returning
// the span ID that represents the node's output. The span kind classifies
// the operator for the trace export: sources are DMS-bound, pipeline
// operators stream per tile, blocking operators materialize.

func (p *pipelineNode) annotate(reg *spanReg, parent int) int {
	switch p.terminal {
	case termScalarAgg:
		p.termID = reg.add(parent, "ScalarAgg", fmt.Sprintf("(aggs=%d)", len(p.aggSpecs)), obs.KindPipeline, true)
	case termGroupBy:
		p.termID = reg.add(parent, "GroupBy", fmt.Sprintf("(keys=%d, aggs=%d, maxGroups=%d)", len(p.groupCols), len(p.aggSpecs), p.maxGroups()), obs.KindPipeline, true)
	default:
		p.termID = reg.add(parent, "Collect", "", obs.KindPipeline, true)
	}
	up := p.termID
	p.stepIDs = make([]int, len(p.steps))
	for i := len(p.steps) - 1; i >= 0; i-- {
		s := p.steps[i]
		switch s.kind {
		case stepFilter:
			p.stepIDs[i] = reg.add(up, "Filter", "", obs.KindPipeline, true)
		case stepPreAgg:
			p.stepIDs[i] = reg.add(up, "PreAgg", fmt.Sprintf("(keys=%d, slots=%d)", len(s.pre.op.Keys), s.pre.slots), obs.KindPipeline, true)
		case stepJoinFilter:
			// The join states at execute time whether it armed the filter
			// (joinFilter.fill).
			p.stepIDs[i] = reg.add(up, "JoinFilter", s.jf.detail(""), obs.KindPipeline, true)
		default:
			p.stepIDs[i] = reg.add(up, "Project", fmt.Sprintf("(exprs=%d)", len(s.proj)), obs.KindPipeline, true)
		}
		up = p.stepIDs[i]
	}
	if p.snap != nil {
		p.srcID = reg.add(up, fmt.Sprintf("Scan(%s)", p.snap.Table().Name()), "", obs.KindSource, false)
	} else {
		// A streamed input: the scan's rows-in must equal the rows the
		// child materialized, which makes this edge a checkable invariant.
		p.srcID = reg.add(up, "Stream", "", obs.KindSource, true)
	}
	if p.input != nil {
		p.input.annotate(reg, p.srcID)
	}
	return p.termID
}

func (g *groupPartNode) annotate(reg *spanReg, parent int) int {
	g.opID = reg.add(parent, "GroupByPartitioned", fmt.Sprintf("(keys=%d, aggs=%d, ndv~%d)", len(g.groupCols), len(g.specs), g.ndv), obs.KindBlocking, true)
	g.input.annotate(reg, g.opID)
	return g.opID
}

func (n *joinNode) annotate(reg *spanReg, parent int) int {
	n.opID = reg.add(parent, "HashJoin", fmt.Sprintf("(type=%v, scheme=%s)", n.typ, n.scheme), obs.KindBlocking, true)
	n.left.annotate(reg, n.opID)
	n.right.annotate(reg, n.opID)
	return n.opID
}

func (n *sortNode) annotate(reg *spanReg, parent int) int {
	if n.k >= 0 {
		n.opID = reg.add(parent, "TopK", fmt.Sprintf("(k=%d, keys=%d)", n.k, len(n.keys)), obs.KindBlocking, true)
	} else {
		n.opID = reg.add(parent, "Sort", fmt.Sprintf("(keys=%d)", len(n.keys)), obs.KindBlocking, true)
	}
	n.input.annotate(reg, n.opID)
	return n.opID
}

func (n *limitNode) annotate(reg *spanReg, parent int) int {
	n.opID = reg.add(parent, "Limit", fmt.Sprintf("(%d)", n.k), obs.KindPipeline, true)
	n.input.annotate(reg, n.opID)
	return n.opID
}

func (n *setopNode) annotate(reg *spanReg, parent int) int {
	n.opID = reg.add(parent, "SetOp", fmt.Sprintf("(%d)", n.kind), obs.KindBlocking, true)
	n.left.annotate(reg, n.opID)
	n.right.annotate(reg, n.opID)
	return n.opID
}

func (n *windowNode) annotate(reg *spanReg, parent int) int {
	n.opID = reg.add(parent, "Window", fmt.Sprintf("(f=%d)", n.spec.Func), obs.KindBlocking, true)
	n.input.annotate(reg, n.opID)
	return n.opID
}
