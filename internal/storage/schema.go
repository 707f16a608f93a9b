// Package storage implements RAPID's in-memory data and storage model
// (paper §4): relational tables split into horizontal partitions, each
// partition holding chunks, each chunk storing its columns as flat
// fixed-width vectors (16 KiB sweet spot), all encoded per §4.2 (DSB,
// dictionary, optional RLE). It also implements the update model of §4.3:
// SCN-stamped update units (UU) applied through a tracker so queries read a
// consistent snapshot.
package storage

import (
	"fmt"

	"rapid/internal/coltypes"
)

// ColumnDef declares one column of a table schema.
type ColumnDef struct {
	Name string
	Type coltypes.Type
}

// Schema is an ordered set of column definitions with name lookup.
type Schema struct {
	cols   []ColumnDef
	byName map[string]int
}

// NewSchema builds a schema; column names must be unique and non-empty.
func NewSchema(cols ...ColumnDef) (*Schema, error) {
	s := &Schema{cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema builds a schema and panics on error (static schemas).
func MustSchema(cols ...ColumnDef) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the column count.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns the definition of column i.
func (s *Schema) Col(i int) ColumnDef { return s.cols[i] }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}
