package qcomp

import "rapid/internal/plan"

// JoinRows exposes joinRows to the external tests: the rows the estimate
// prices join j as building and probing, and the compiler's estimate of
// each input.
func (c *Compiled) JoinRows(j *plan.Join) (build, probe, left, right int64) {
	build, probe, _ = c.joinRows(j)
	return build, probe, c.rows[j.Left], c.rows[j.Right]
}
