// Package ops implements RAPID's data processing operators (paper §5.4 and
// §6): scan, filter with RID/bit-vector duality and late materialization,
// combined hardware+software partitioning, the partitioned hash join with
// skew- and statistics-resilient execution, both group-by strategies, radix
// sorting, top-k, window functions and set operations.
//
// Streaming operators implement qef.Operator and run inside tasks; heavier
// phases (partitioning, join, sort) are relation-to-relation functions that
// parallelize across the dpCores through qef.Context.RunParallel.
package ops

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/storage"
)

// Col describes one column of a relation: the logical type information
// needed to interpret and render it.
type Col struct {
	Name string
	Type coltypes.Type
	Dict *encoding.Dict // string columns
}

// Relation is a DRAM-materialized relation — the unit flowing between tasks
// (within a task, data flows as qef.Tile) — as an ordered list of
// equal-schema chunks: one column per Col in each, of one length, column c at
// one width in all. An operator's pieces of output (a join unit's, a sink's
// per-unit runs) are its chunks, in unit order, so nothing is concatenated
// between operators. Inside a query the chunks are on lease from its context
// (qef.Context.Lease); a relation leaving the query is Flattened once.
type Relation struct {
	Cols   []Col
	Chunks [][]coltypes.Data
}

// NewRelation builds a relation over the given chunks, validating their
// shape. Empty chunks are dropped; with none left the relation keeps one
// empty chunk — the first given, or zero-length W8 columns.
func NewRelation(cols []Col, chunks ...[]coltypes.Data) (*Relation, error) {
	r := &Relation{Cols: cols}
	for _, ch := range chunks {
		for c, d := range ch {
			if len(ch) != len(cols) || d.Len() != ch[0].Len() || d.Width() != chunks[0][c].Width() {
				return nil, fmt.Errorf("ops: ragged relation: a chunk of %d columns for %d, column %q of %d rows at W%d",
					len(ch), len(cols), cols[c].Name, d.Len(), d.Width())
			}
		}
		if len(ch) > 0 && ch[0].Len() > 0 {
			r.Chunks = append(r.Chunks, ch)
		}
	}
	switch {
	case len(r.Chunks) > 0:
	case len(chunks) > 0:
		r.Chunks = chunks[:1]
	default:
		empty := make([]coltypes.Data, len(cols))
		for c := range empty {
			empty[c] = coltypes.Of([]int64{})
		}
		r.Chunks = [][]coltypes.Data{empty}
	}
	return r, nil
}

// MustRelation builds a relation or panics.
func MustRelation(cols []Col, chunks ...[]coltypes.Data) *Relation {
	r, err := NewRelation(cols, chunks...)
	if err != nil {
		panic(err)
	}
	return r
}

// Rows returns the row count.
func (r *Relation) Rows() int { return numRows(r.Chunks) }

// NumCols returns the column count.
func (r *Relation) NumCols() int { return len(r.Cols) }

// Col returns column c of a one-chunk relation (a Flattened one, or one
// built from plain columns); a chunked relation is read chunk by chunk.
func (r *Relation) Col(c int) coltypes.Data {
	if len(r.Chunks) != 1 {
		panic(fmt.Sprintf("ops: Col on a relation of %d chunks", len(r.Chunks)))
	}
	return r.Chunks[0][c]
}

// Flat returns r if it is one chunk, else a Flattened copy: for an operator
// that needs random access across the whole relation (sort, top-k, window).
func (r *Relation) Flat() *Relation {
	if len(r.Chunks) == 1 {
		return r
	}
	return r.Flatten()
}

// Flatten copies r into one chunk of heap columns, which outlive the query
// that leased r's chunks: the one copy of a relation leaving its query.
func (r *Relation) Flatten() *Relation {
	out := make([]coltypes.Data, len(r.Cols))
	for c := range out {
		out[c] = r.Chunks[0][c].NewSame(r.Rows())
		at := 0
		for _, ch := range r.Chunks {
			out[c].CopyFrom(at, ch[c])
			at += ch[c].Len()
		}
	}
	return &Relation{Cols: r.Cols, Chunks: [][]coltypes.Data{out}}
}

// Project returns columns idx of r, in that order, sharing r's data.
func (r *Relation) Project(idx []int) *Relation {
	out := &Relation{Cols: make([]Col, len(idx)), Chunks: make([][]coltypes.Data, len(r.Chunks))}
	for k, ch := range r.Chunks {
		out.Chunks[k] = make([]coltypes.Data, len(idx))
		for i, c := range idx {
			out.Cols[i], out.Chunks[k][i] = r.Cols[c], ch[c]
		}
	}
	return out
}

// gather returns rows rids of a one-chunk relation, in that order, on the heap.
func (r *Relation) gather(rids []uint32) *Relation {
	out := make([]coltypes.Data, len(r.Cols))
	for c, d := range r.Chunks[0] {
		out[c] = d.NewSame(len(rids))
		coltypes.Gather(out[c], d, rids)
	}
	return MustRelation(r.Cols, out)
}

// Get returns the raw value of cell (row, col).
func (r *Relation) Get(row, col int) int64 {
	for _, ch := range r.Chunks {
		if n := ch[0].Len(); row >= n {
			row -= n
			continue
		}
		return ch[col].Get(row)
	}
	panic(fmt.Sprintf("ops: row %d out of range", row))
}

// Render decodes cell (row, col) for display.
func (r *Relation) Render(row, col int) string {
	c := r.Cols[col]
	v := r.Get(row, col)
	switch c.Type.Kind {
	case coltypes.KindString:
		if c.Dict != nil {
			if v < 0 || v >= int64(c.Dict.Len()) {
				// Left-outer padding in the NULL-free engine: unmatched
				// probe rows carry code 0, which an empty build-side
				// dictionary cannot decode. Render the padding as ''.
				return ""
			}
			return c.Dict.Value(int32(v))
		}
		return fmt.Sprintf("#%d", v)
	case coltypes.KindDecimal:
		return encoding.Decimal{Unscaled: v, Scale: c.Type.Scale}.String()
	case coltypes.KindDate:
		return storage.DateToString(v)
	case coltypes.KindBool:
		if v != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%d", v)
	}
}
