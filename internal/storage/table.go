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

// Table is a loaded base relation: schema, physical metadata, horizontally
// partitioned columnar data, statistics and the SCN/update state of §3.3
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

// version is one immutable state of a table: base storage with its metadata,
// layout and statistics, the visible prefix of the unit log, and the one
// read view every query at this version shares.
type version struct {
	meta      []ColumnMeta
	stats     *TableStats
	chunkRows int       // rows per full chunk
	partRows  [][]int32 // hash-partitioned builds: per partition, the append ordinals it holds, ascending
	baseSCN   uint64    // SCN up to which changes are merged into base data
	snap      Snapshot  // its scn is that of the newest applied update unit
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

// NumPartitions returns the partition count.
func (t *Table) NumPartitions() int { return len(t.cur.Load().snap.parts) }

// Partition returns partition i.
func (t *Table) Partition(i int) *Partition { return t.cur.Load().snap.parts[i] }

// Rows returns the base row count (excluding unmerged update units).
func (t *Table) Rows() int {
	n := 0
	for _, p := range t.cur.Load().snap.parts {
		n += p.Rows()
	}
	return n
}

// SCN returns the newest change SCN applied to this table in RAPID. A query
// is admissible only if every journal entry up to the query's SCN has been
// propagated (paper §3.3); the host database compares against this value.
func (t *Table) SCN() uint64 { return t.cur.Load().snap.scn }

// BaseSCN returns the SCN merged into base storage.
func (t *Table) BaseSCN() uint64 { return t.cur.Load().baseSCN }

// Tracker returns the update tracker.
func (t *Table) Tracker() *Tracker { return t.tracker }

// EncodeValue encodes a logical value into the physical representation of
// column c, returning the encoded integer and, for decimals that do not fit
// the common scale, the exact exception value.
func (t *Table) EncodeValue(c int, v Value) (int64, *encoding.Decimal, error) {
	m := &t.cur.Load().meta[c]
	want := m.Def.Type.Kind
	if v.Kind != want {
		return 0, nil, fmt.Errorf("storage: column %s expects %v, got %v", m.Def.Name, want, v.Kind)
	}
	switch want {
	case coltypes.KindString:
		return int64(m.Dict.Add(v.Str)), nil, nil
	case coltypes.KindDecimal:
		if u, ok := v.Dec.Rescale(m.Scale); ok {
			return u, nil, nil
		}
		d := v.Dec
		// Best-effort truncation keeps ordering roughly right (§4.2).
		approx := int64(0)
		if diff := int(d.Scale - m.Scale); diff > 0 && diff <= encoding.MaxScale {
			approx = d.Unscaled / encoding.Pow10(diff)
		}
		return approx, &d, nil
	default:
		return v.Int, nil, nil
	}
}

// DecodeValue renders the encoded integer of column c back to a logical
// value.
func (t *Table) DecodeValue(c int, enc int64) Value {
	m := &t.cur.Load().meta[c]
	switch m.Def.Type.Kind {
	case coltypes.KindString:
		return StrValue(m.Dict.Value(int32(enc)))
	case coltypes.KindDecimal:
		return DecValue(encoding.Decimal{Unscaled: enc, Scale: m.Scale})
	case coltypes.KindDate:
		return Value{Kind: coltypes.KindDate, Int: enc}
	case coltypes.KindBool:
		return BoolValue(enc != 0)
	default:
		return IntValue(enc)
	}
}

// StoredBytes returns the total columnar storage footprint.
func (t *Table) StoredBytes() int {
	n := 0
	for _, p := range t.cur.Load().snap.parts {
		for _, ch := range p.chunks {
			for _, v := range ch.cols {
				n += v.StoredBytes()
			}
		}
	}
	return n
}
