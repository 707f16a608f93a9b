package qcomp

import (
	"fmt"

	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// relationNode is a leaf over an already-materialized relation — the splice
// point CompileWithInputs uses to run a residual plan fragment over exchange
// outputs. It produces its relation as-is, like any other physNode output.
type relationNode struct {
	rel  *ops.Relation
	fs   []plan.Field
	opID int
}

func newRelationNode(rel *ops.Relation) *relationNode {
	fs := make([]plan.Field, len(rel.Cols))
	for i, c := range rel.Cols {
		fs[i] = plan.Field{Name: c.Name, Type: c.Type, Dict: c.Dict}
	}
	return &relationNode{rel: rel, fs: fs}
}

// opsCols is the relation columns of fields fs.
func opsCols(fs []plan.Field) []ops.Col {
	cols := make([]ops.Col, len(fs))
	for i, f := range fs {
		cols[i] = ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict}
	}
	return cols
}

func (n *relationNode) execute(ctx *qef.Context, _ filterSet) (*ops.Relation, error) {
	ctx.Prof.Span(n.opID).AddRowsOut(int64(n.rel.Rows()))
	return n.rel, nil
}

func (n *relationNode) fields() []plan.Field { return n.fs }
func (n *relationNode) estRows() int64       { return int64(n.rel.Rows()) }

func (n *relationNode) annotate(reg *spanReg, parent int) int {
	n.opID = reg.add(parent, "Relation", fmt.Sprintf("(rows=%d)", n.rel.Rows()), obs.KindSource, false)
	return n.opID
}

// headerMove selects, reorders and renames the columns of a materialized
// relation (lowerPipeline) without reading or writing a row. It runs no
// operator, so it has no span.
type headerMove struct {
	input physNode
	keep  []int // the input column of each output
	fs    []plan.Field
}

func (n *headerMove) fields() []plan.Field { return n.fs }
func (n *headerMove) estRows() int64       { return n.input.estRows() }
func (n *headerMove) execute(ctx *qef.Context, fs filterSet) (*ops.Relation, error) {
	rel, err := n.input.execute(ctx, fs)
	if err != nil {
		return nil, err
	}
	out := rel.Project(n.keep)
	out.Cols = opsCols(n.fs)
	return out, nil
}

func (n *headerMove) annotate(reg *spanReg, parent int) int {
	return n.input.annotate(reg, parent)
}
