package qef

// Operator is a RAPID data processing operator (paper §5.4): operators are
// defined by op_dmem_size, create, open, produce and close. Execution is
// push-based: the task source (relation accessor or upstream operator)
// calls Produce once per tile, and Close when the stream ends. Operators
// forward tiles to their downstream operator inside the same task; results
// at task boundaries are materialized to DRAM by a sink operator.
type Operator interface {
	// DMEMSize returns the DMEM bytes the operator needs for its internal
	// state and output buffers at the given tile size (op_dmem_size). Task
	// formation (§5.2) packs operators into tasks under this budget.
	DMEMSize(tileRows int) int
	// Open prepares per-core state before the first tile (open).
	Open(tc *TaskCtx) error
	// Produce consumes one tile (produce). The tile's buffers belong to the
	// caller and may be reused after the call returns.
	Produce(tc *TaskCtx, t *Tile) error
	// Close flushes state at end of data (close).
	Close(tc *TaskCtx) error
}

// UnitEnder is an operator that holds state for one work unit of its task
// source — a scan unit's pre-aggregation table — and emits it downstream once
// the unit's last tile has passed. It registers itself in the unit with
// TaskCtx.AtUnitEnd.
type UnitEnder interface {
	EndUnit(tc *TaskCtx) error
}
