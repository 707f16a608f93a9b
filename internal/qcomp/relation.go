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
// outputs. It produces its relation as-is; parents stream it via
// ops.RelationScan like any other physNode output.
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
