package qcomp

import (
	"fmt"

	"rapid/internal/mem"
	"rapid/internal/qef"
)

// Task formation (paper §5.2, Fig 4): operators are greedily grouped into
// tasks under the DMEM budget — operators within a task pipeline tiles
// through DMEM, and only task boundaries materialize to DRAM. Packing more
// operators into a task shrinks the per-operator vector size; the optimizer
// builds candidate formations and picks the one with the least modeled
// cost.

// OpReq describes one pipeline operator to the task former.
type OpReq struct {
	// DMEMSize returns the operator's DMEM need at a tile size (state +
	// input/output vectors), mirroring op_dmem_size.
	DMEMSize func(tileRows int) int
	// OutBytesPerRow is the width of the operator's output row; combined
	// with Selectivity it sizes the DRAM materialization at a boundary.
	OutBytesPerRow int
	// Selectivity is output rows / input rows.
	Selectivity float64
}

// Task is one formed group.
type Task struct {
	Ops      []OpReq
	TileRows int
}

// Formation is a full grouping of the pipeline.
type Formation struct {
	Tasks []Task
	// MaterializedBytes is the DRAM traffic at task boundaries for
	// inputRows input rows (the quantity Fig 4 minimizes).
	MaterializedBytes int64
	// Cost is the modeled execution seconds.
	Cost float64
}

// dmemReserve is DMEM kept for the runtime (stack, control) and double
// buffering overhead.
const dmemReserve = 4 * 1024

// maxTileRowsFor returns the largest tile size at which the operator group
// fits the DMEM budget; 0 when even the minimum tile does not fit.
func maxTileRowsFor(ops []OpReq, budget int) int {
	fits := func(rows int) bool {
		total := 0
		for _, op := range ops {
			total += op.DMEMSize(rows)
		}
		return total <= budget
	}
	if !fits(qef.MinTileRows) {
		return 0
	}
	rows := qef.MinTileRows
	for rows*2 <= 4096 && fits(rows*2) {
		rows *= 2
	}
	return rows
}

// FormTasks builds the greedy maximal-packing formation plus the
// alternative single-operator formations, costs each over inputRows rows,
// and returns the cheapest (§5.2 "we create a set of task formation
// candidates ... and choose the one with the least overall cost").
func FormTasks(opsList []OpReq, inputRows int64) (Formation, error) {
	if len(opsList) == 0 {
		return Formation{}, fmt.Errorf("qcomp: no operators to form")
	}
	budget := mem.DMEMSize - dmemReserve

	var candidates []Formation
	// Candidate 1: greedy maximal packing.
	if f, ok := packGreedy(opsList, budget, inputRows); ok {
		candidates = append(candidates, f)
	}
	// Candidate 2: one operator per task with maximal vectors.
	if f, ok := packSingles(opsList, budget, inputRows); ok {
		candidates = append(candidates, f)
	}
	// Candidate 3: pairs (a middle ground).
	if f, ok := packPairs(opsList, budget, inputRows); ok {
		candidates = append(candidates, f)
	}
	if len(candidates) == 0 {
		return Formation{}, fmt.Errorf("qcomp: no operator grouping fits the %d-byte DMEM", mem.DMEMSize)
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.Cost < best.Cost {
			best = c
		}
	}
	return best, nil
}

func packGreedy(opsList []OpReq, budget int, inputRows int64) (Formation, bool) {
	var tasks []Task
	i := 0
	for i < len(opsList) {
		// Start a task at operator i and extend while the group still fits
		// at the minimum tile size.
		j := i + 1
		for j < len(opsList) && maxTileRowsFor(opsList[i:j+1], budget) > 0 {
			j++
		}
		rows := maxTileRowsFor(opsList[i:j], budget)
		if rows == 0 {
			return Formation{}, false
		}
		tasks = append(tasks, Task{Ops: opsList[i:j], TileRows: rows})
		i = j
	}
	return costFormation(tasks, inputRows), true
}

func packSingles(opsList []OpReq, budget int, inputRows int64) (Formation, bool) {
	tasks := make([]Task, len(opsList))
	for i, op := range opsList {
		rows := maxTileRowsFor(opsList[i:i+1], budget)
		if rows == 0 {
			return Formation{}, false
		}
		tasks[i] = Task{Ops: []OpReq{op}, TileRows: rows}
	}
	return costFormation(tasks, inputRows), true
}

func packPairs(opsList []OpReq, budget int, inputRows int64) (Formation, bool) {
	var tasks []Task
	for i := 0; i < len(opsList); i += 2 {
		j := i + 2
		if j > len(opsList) {
			j = len(opsList)
		}
		rows := maxTileRowsFor(opsList[i:j], budget)
		if rows == 0 {
			return Formation{}, false
		}
		tasks = append(tasks, Task{Ops: opsList[i:j], TileRows: rows})
	}
	return costFormation(tasks, inputRows), true
}

// costFormation models a formation's cost: DRAM materialization at task
// boundaries (write + re-read) at DMS bandwidth, plus a per-tile control
// overhead that larger vectors amortize.
func costFormation(tasks []Task, inputRows int64) Formation {
	const dmsBytesPerSec = 9.5 * (1 << 30)
	const tileOverheadSec = 40e-9 // per tile per operator

	f := Formation{Tasks: tasks}
	rows := float64(inputRows)
	for ti, t := range tasks {
		for _, op := range t.Ops {
			tiles := rows / float64(t.TileRows)
			f.Cost += tiles * tileOverheadSec
			rows *= op.Selectivity
		}
		// Materialize at the boundary (not after the last task: its output
		// is the query result and always materializes; count it too so
		// formations are comparable).
		lastOp := t.Ops[len(t.Ops)-1]
		outBytes := int64(rows) * int64(lastOp.OutBytesPerRow)
		f.MaterializedBytes += outBytes
		f.Cost += float64(outBytes) / dmsBytesPerSec // write
		if ti < len(tasks)-1 {
			f.Cost += float64(outBytes) / dmsBytesPerSec // re-read
		}
	}
	return f
}

// ChooseTileRows picks the tile size for a pipeline of operators: the
// largest tile the DMEM fits (the second step of task formation, growing
// vectors into the remaining space).
func ChooseTileRows(opsList []OpReq) int {
	rows := maxTileRowsFor(opsList, mem.DMEMSize-dmemReserve)
	if rows == 0 {
		return qef.MinTileRows
	}
	return rows
}
