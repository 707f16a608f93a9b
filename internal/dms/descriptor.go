package dms

import (
	"fmt"

	"rapid/internal/coltypes"
)

// Descriptor-programmed transfers (paper §2.3, §5.1): "we program the DMS
// using descriptors — a descriptor represents the data transfer with
// parameters like amount of data, source and destination memory locations.
// Typically, multiple descriptors are chained one after another to form a
// loop of DMS transfers. Loops allow reusing a set of descriptors for
// multiple iterations and overlap memory transfers with the ongoing
// computation."

// Direction of a descriptor.
type Direction int

const (
	DirRead  Direction = iota // DRAM -> DMEM
	DirWrite                  // DMEM -> DRAM
)

// Descriptor is one chained transfer: Rows elements of Col move to/from the
// DMEM buffer Buf per loop iteration, advancing by Rows through the column.
type Descriptor struct {
	Dir  Direction
	Col  coltypes.Data // DRAM column
	Buf  coltypes.Data // DMEM buffer (>= Rows elements)
	Rows int
}

// Validate checks descriptor consistency.
func (d *Descriptor) Validate() error {
	if d.Rows <= 0 {
		return fmt.Errorf("dms: descriptor rows must be positive")
	}
	if !d.Col.Width().Valid() || !d.Buf.Width().Valid() {
		return fmt.Errorf("dms: descriptor needs column and buffer")
	}
	if d.Buf.Len() < d.Rows {
		return fmt.Errorf("dms: buffer of %d elements below %d rows", d.Buf.Len(), d.Rows)
	}
	if d.Col.Width() != d.Buf.Width() {
		return fmt.Errorf("dms: width mismatch between column and buffer")
	}
	return nil
}

// Loop is a reusable chain of descriptors.
type Loop struct {
	eng   *Engine
	descs []*Descriptor
	pos   int
}

// NewLoop chains descriptors into a loop.
func (e *Engine) NewLoop(descs ...*Descriptor) (*Loop, error) {
	for i, d := range descs {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("descriptor %d: %w", i, err)
		}
	}
	return &Loop{eng: e, descs: descs}, nil
}

// Reset rewinds the loop to the first row.
func (l *Loop) Reset() { l.pos = 0 }

// Remaining returns the rows left in the shortest column.
func (l *Loop) Remaining() int {
	min := -1
	for _, d := range l.descs {
		left := d.Col.Len() - l.pos
		if min < 0 || left < min {
			min = left
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// Iterate executes one loop iteration: all read descriptors fire (filling
// DMEM buffers), body computes over the buffers, then all write descriptors
// flush. Returns the rows processed (0 at end of data) and the transfer
// timing of the iteration. On hardware the next iteration's reads overlap
// the body via double buffering; the caller accounts that overlap
// (qef.TaskCtx does it with max(compute, transfer)).
func (l *Loop) Iterate(body func(rows int) error) (int, Timing, error) {
	n := l.Remaining()
	if n <= 0 {
		return 0, Timing{}, nil
	}
	var total Timing
	rows := n
	for _, d := range l.descs {
		if d.Rows < rows {
			rows = d.Rows
		}
	}
	for _, d := range l.descs {
		if d.Dir != DirRead {
			continue
		}
		tm := l.eng.Read([]coltypes.Data{d.Col}, l.pos, l.pos+rows, []coltypes.Data{d.Buf.Slice(0, rows)})
		total.Add(tm)
	}
	if body != nil {
		if err := body(rows); err != nil {
			return 0, total, err
		}
	}
	for _, d := range l.descs {
		if d.Dir != DirWrite {
			continue
		}
		tm := l.eng.Write([]coltypes.Data{d.Col}, l.pos, []coltypes.Data{d.Buf.Slice(0, rows)}, rows)
		total.Add(tm)
	}
	l.pos += rows
	return rows, total, nil
}

// Run drives the loop to completion, returning total rows and timing.
func (l *Loop) Run(body func(rows int) error) (int, Timing, error) {
	totalRows := 0
	var total Timing
	for {
		rows, tm, err := l.Iterate(body)
		total.Add(tm)
		if err != nil {
			return totalRows, total, err
		}
		if rows == 0 {
			return totalRows, total, nil
		}
		totalRows += rows
	}
}
