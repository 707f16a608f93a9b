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
)

// Col is one column of a materialized relation: data plus the logical type
// information needed to interpret and render it.
type Col struct {
	Name string
	Type coltypes.Type
	Dict *encoding.Dict // string columns
	Data coltypes.Data
}

// Relation is a DRAM-materialized (intermediate) relation — the unit flowing
// between tasks. Within a task, data flows as qef.Tile instead.
type Relation struct {
	Cols []Col
}

// NewRelation builds a relation, validating column lengths agree.
func NewRelation(cols []Col) (*Relation, error) {
	if len(cols) > 0 {
		n := cols[0].Data.Len()
		for _, c := range cols[1:] {
			if c.Data.Len() != n {
				return nil, fmt.Errorf("ops: ragged relation: %q has %d rows, %q has %d",
					cols[0].Name, n, c.Name, c.Data.Len())
			}
		}
	}
	return &Relation{Cols: cols}, nil
}

// MustRelation builds a relation or panics.
func MustRelation(cols []Col) *Relation {
	r, err := NewRelation(cols)
	if err != nil {
		panic(err)
	}
	return r
}

// Rows returns the row count.
func (r *Relation) Rows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Data.Len()
}

// NumCols returns the column count.
func (r *Relation) NumCols() int { return len(r.Cols) }

// Datas returns the raw column data slices in order.
func (r *Relation) Datas() []coltypes.Data {
	out := make([]coltypes.Data, len(r.Cols))
	for i, c := range r.Cols {
		out[i] = c.Data
	}
	return out
}

// Render decodes cell (row, col) for display.
func (r *Relation) Render(row, col int) string {
	c := r.Cols[col]
	v := c.Data.Get(row)
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
		return dateString(v)
	case coltypes.KindBool:
		if v != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%d", v)
	}
}

// dateString formats a day number; kept local to avoid importing storage.
func dateString(days int64) string {
	// days since 1970-01-01; reuse the civil-date algorithm.
	z := days + 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	if mp >= 10 {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}
