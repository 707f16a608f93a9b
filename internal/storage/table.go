package storage

import (
	"fmt"
	"sync/atomic"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// ColumnMeta is the physical encoding chosen for one table column — the
// per-column entry of the RAPID metadata (§3.4).
type ColumnMeta struct {
	Def   ColumnDef
	Width coltypes.Width
	Scale int8           // DSB common scale (KindDecimal)
	Dict  *encoding.Dict // shared dictionary (KindString)
	RLE   bool           // chunks stored RLE-compressed where worthwhile
}

// Codec returns the per-column encoding of a schema: kind and DSB scale from
// the column type and, for string columns, dicts[i] or — where dicts has no
// entry — a fresh dictionary. The fixed-width integers a codec produces are
// the one interchange format between the host row store, its journal, the
// replica builders, the update log and the tray's shard maps; Value exists
// only on the far side of Encode and Decode. Width and RLE are chosen later,
// by the build that stores the column.
func Codec(schema *Schema, dicts []*encoding.Dict) []ColumnMeta {
	meta := make([]ColumnMeta, schema.NumCols())
	for i := range meta {
		def := schema.Col(i)
		meta[i] = ColumnMeta{Def: def, Scale: def.Type.Scale}
		if def.Type.Kind == coltypes.KindString {
			if i < len(dicts) && dicts[i] != nil {
				meta[i].Dict = dicts[i]
			} else {
				meta[i].Dict = encoding.NewDict()
			}
		}
	}
	return meta
}

// Encode converts a logical value to the column's encoding. A value of the
// wrong kind and a decimal that is not exact at the column's scale are
// errors; a new string enters the dictionary.
func (m ColumnMeta) Encode(v Value) (int64, error) {
	kind := m.Def.Type.Kind
	if v.Kind != kind {
		return 0, fmt.Errorf("storage: column %s expects %v, got %v", m.Def.Name, kind, v.Kind)
	}
	switch kind {
	case coltypes.KindString:
		return int64(m.Dict.Add(v.Str)), nil
	case coltypes.KindDecimal:
		u, ok := v.Dec.Rescale(m.Scale)
		if !ok {
			return 0, fmt.Errorf("storage: column %s: decimal %s does not fit scale %d", m.Def.Name, v.Dec, m.Scale)
		}
		return u, nil
	default:
		return v.Int, nil
	}
}

// EncodeRow encodes one row of logical values into dst, column by column.
func EncodeRow(meta []ColumnMeta, vals []Value, dst []int64) error {
	if len(vals) != len(meta) {
		return fmt.Errorf("storage: row has %d values, schema has %d columns", len(vals), len(meta))
	}
	for c, v := range vals {
		var err error
		if dst[c], err = meta[c].Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// Table is a loaded base relation: schema, physical metadata, columnar data
// in chunks, statistics and the SCN/update state of §3.3
// and §4.3. Everything that changes after Build lives in the current
// version.
type Table struct {
	name    string
	schema  *Schema
	shard   *ShardMap // tray shard map this table is one shard of (nil single-node)
	tracker *Tracker

	// cur is the newest published version. Readers load it and never lock;
	// Tracker.Apply and Compact (serialised on tracker.mu) build the next
	// version and store it.
	cur atomic.Pointer[version]

	// epoch counts visible-data generations: Tracker.Apply and Compact bump
	// it strictly BEFORE publishing the new version (DESIGN.md §10). A reader
	// that captures the epoch, computes, and sees the same epoch afterwards
	// is guaranteed its computation saw no concurrently published mutation;
	// the converse spurious case (epoch moved, data unchanged yet) only
	// causes a harmless cache invalidation.
	epoch atomic.Uint64
}

// version is one immutable state of a table: base storage with its metadata
// and statistics, the visible prefix of the unit log, and the one read view
// every query at this version shares.
type version struct {
	meta  []ColumnMeta
	stats *TableStats
	snap  Snapshot // its scn is that of the newest applied update unit
}

// DataEpoch returns the table's visible-data generation counter. Lock-free;
// see the epoch field contract.
func (t *Table) DataEpoch() uint64 { return t.epoch.Load() }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Meta returns the physical metadata of column i.
func (t *Table) Meta(i int) ColumnMeta { return t.cur.Load().meta[i] }

// Stats returns the current table statistics. The returned TableStats is
// immutable: every version carries its own (see refreshStats).
func (t *Table) Stats() *TableStats { return t.cur.Load().stats }

// Rows returns the base row count (excluding unmerged update units).
func (t *Table) Rows() int { return t.cur.Load().snap.baseRows() }

// Tracker returns the update tracker.
func (t *Table) Tracker() *Tracker { return t.tracker }

// StoredBytes returns the total columnar storage footprint.
func (t *Table) StoredBytes() int {
	n := 0
	for _, ch := range t.cur.Load().snap.chunks {
		for _, v := range ch.cols {
			n += v.StoredBytes()
		}
	}
	return n
}
