package storage

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// BuildOptions tunes the physical layout produced by a TableBuilder.
type BuildOptions struct {
	// Partitions is the number of horizontal partitions (default 1).
	Partitions int
	// PartitionKey is the column hashed to route rows to partitions; -1
	// (default with Partitions == 1) assigns chunks round-robin.
	PartitionKey int
	// ChunkRows is the rows-per-chunk target (default DefaultChunkRows,
	// which makes 4-byte vectors exactly the 16 KiB sweet spot).
	ChunkRows int
	// TryRLE enables the RLE layer on vectors where it compresses.
	TryRLE bool
	// SharedDicts, when non-nil, supplies the dictionary for string columns
	// (nil entries still get a fresh one). The tray loader passes the host
	// table's dictionaries so every node shard encodes values identically —
	// group keys, sort ranks and literals then compare across nodes without
	// recoding.
	SharedDicts []*encoding.Dict
}

func (o *BuildOptions) normalize() {
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.ChunkRows <= 0 {
		o.ChunkRows = DefaultChunkRows
	}
}

// TableBuilder accumulates rows and produces an immutable base Table. The
// two-phase design mirrors the LOAD path of §4.4: scan threads buffer
// records, then the encoded columnar layout is built in one pass with the
// final widths, scales and statistics.
type TableBuilder struct {
	name   string
	schema *Schema
	meta   []ColumnMeta
	opts   BuildOptions

	cols       [][]int64 // buffered encoded values, per column
	exceptions []map[int]encoding.Decimal
	stats      *statsBuilder
	scratch    []int64
}

// NewTableBuilder creates a builder. Decimal columns use the scale from the
// schema type; string columns get a fresh dictionary.
func NewTableBuilder(name string, schema *Schema, opts BuildOptions) *TableBuilder {
	opts.normalize()
	b := &TableBuilder{
		name:       name,
		schema:     schema,
		opts:       opts,
		cols:       make([][]int64, schema.NumCols()),
		exceptions: make([]map[int]encoding.Decimal, schema.NumCols()),
		stats:      newStatsBuilder(schema.NumCols()),
		meta:       make([]ColumnMeta, schema.NumCols()),
		scratch:    make([]int64, schema.NumCols()),
	}
	for i := range b.meta {
		def := schema.Col(i)
		b.meta[i] = ColumnMeta{Def: def, Scale: def.Type.Scale}
		if def.Type.Kind == coltypes.KindString {
			if i < len(opts.SharedDicts) && opts.SharedDicts[i] != nil {
				b.meta[i].Dict = opts.SharedDicts[i]
			} else {
				b.meta[i].Dict = encoding.NewDict()
			}
		}
	}
	return b
}

// Append adds one row of logical values.
func (b *TableBuilder) Append(row []Value) error {
	if len(row) != b.schema.NumCols() {
		return fmt.Errorf("storage: row has %d values, schema has %d columns", len(row), b.schema.NumCols())
	}
	for c, v := range row {
		enc, exc, err := b.encode(c, v)
		if err != nil {
			return err
		}
		if exc != nil {
			if b.exceptions[c] == nil {
				b.exceptions[c] = make(map[int]encoding.Decimal)
			}
			b.exceptions[c][len(b.cols[c])] = *exc
		}
		b.cols[c] = append(b.cols[c], enc)
		b.scratch[c] = enc
	}
	b.stats.addRow(b.scratch)
	return nil
}

func (b *TableBuilder) encode(c int, v Value) (int64, *encoding.Decimal, error) {
	m := &b.meta[c]
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
		approx := int64(0)
		if diff := int(d.Scale - m.Scale); diff > 0 && diff <= encoding.MaxScale {
			approx = d.Unscaled / encoding.Pow10(diff)
		}
		return approx, &d, nil
	default:
		return v.Int, nil, nil
	}
}

// Rows returns the number of buffered rows.
func (b *TableBuilder) Rows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return len(b.cols[0])
}

// Build finalizes the table: widths are chosen from the observed domains,
// rows are routed to partitions, chunk vectors are cut at the 16 KiB sweet
// spot, and RLE is applied where it pays.
func (b *TableBuilder) Build() (*Table, error) {
	n := 0
	if b.schema.NumCols() > 0 {
		n = len(b.cols[0])
	}
	stats := b.stats.build()
	// Choose physical widths from observed min/max.
	for c := range b.meta {
		cs := stats.Cols[c]
		if n == 0 {
			b.meta[c].Width = coltypes.W8
			continue
		}
		b.meta[c].Width = coltypes.WidthFor(cs.Min, cs.Max)
	}

	// Route rows to partitions.
	rowPart := make([]int, n)
	switch {
	case b.opts.Partitions == 1:
		// all zero
	case b.opts.PartitionKey >= 0:
		key := b.cols[b.opts.PartitionKey]
		p := b.opts.Partitions
		for i, k := range key {
			rowPart[i] = int(uint64(k) % uint64(p))
		}
	default:
		p := b.opts.Partitions
		for i := range rowPart {
			rowPart[i] = (i / b.opts.ChunkRows) % p
		}
	}

	parts := make([]*Partition, b.opts.Partitions)
	for i := range parts {
		parts[i] = &Partition{}
	}
	// Per-partition row index lists, order-preserving.
	perPart := make([][]int32, b.opts.Partitions)
	for i := 0; i < n; i++ {
		perPart[rowPart[i]] = append(perPart[rowPart[i]], int32(i))
	}
	for p, rows := range perPart {
		for lo := 0; lo < len(rows); lo += b.opts.ChunkRows {
			hi := lo + b.opts.ChunkRows
			if hi > len(rows) {
				hi = len(rows)
			}
			chunkRows := rows[lo:hi]
			vecs := make([]*Vector, b.schema.NumCols())
			for c := range vecs {
				data := coltypes.New(b.meta[c].Width, len(chunkRows))
				var exc map[int]encoding.Decimal
				for j, src := range chunkRows {
					data.Set(j, b.cols[c][src])
					if e, ok := b.exceptions[c][int(src)]; ok {
						if exc == nil {
							exc = make(map[int]encoding.Decimal)
						}
						exc[j] = e
					}
				}
				var v *Vector
				if b.opts.TryRLE {
					if r, ok := encoding.WorthRLE(data); ok {
						v = NewRLEVector(r)
						b.meta[c].RLE = true
					}
				}
				if v == nil {
					v = NewVector(data)
				}
				v.SetExceptions(exc)
				vecs[c] = v
			}
			parts[p].AppendChunk(NewChunk(vecs))
		}
	}

	t := &Table{name: b.name, schema: b.schema}
	t.tracker = NewTracker(t)
	v := &version{meta: b.meta, stats: stats, chunkRows: b.opts.ChunkRows, snap: Snapshot{t: t, parts: parts}}
	if b.opts.Partitions > 1 && b.opts.PartitionKey >= 0 {
		// Hash routing is the one layout BaseRowRef cannot invert by
		// arithmetic; keep which append ordinals each partition received.
		v.partRows = perPart
	}
	t.cur.Store(v)
	return t, nil
}

// MustBuild builds or panics.
func (b *TableBuilder) MustBuild() *Table {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
