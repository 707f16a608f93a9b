package storage

import (
	"fmt"
	"slices"
	"sync"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// BuildOptions tunes the physical layout produced by a TableBuilder.
type BuildOptions struct {
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
	if o.ChunkRows <= 0 {
		o.ChunkRows = DefaultChunkRows
	}
}

// TableBuilder accumulates rows and produces an immutable base Table. The
// two-phase design mirrors the LOAD path of §4.4: scan threads move records
// into per-column buffers, then the encoded columnar layout is built in one
// pass with the final widths and statistics.
type TableBuilder struct {
	name   string
	schema *Schema
	meta   []ColumnMeta
	opts   BuildOptions

	cols    [][]int64 // buffered encoded values, per column
	stats   []colStatsBuilder
	scratch []int64 // the row Append encodes into
}

// NewTableBuilder creates a builder. Decimal columns use the scale from the
// schema type; string columns get a fresh dictionary unless
// opts.SharedDicts supplies one.
func NewTableBuilder(name string, schema *Schema, opts BuildOptions) *TableBuilder {
	return newBuilder(name, schema, Codec(schema, opts.SharedDicts), opts)
}

// newBuilder creates a builder over the given column codecs.
func newBuilder(name string, schema *Schema, meta []ColumnMeta, opts BuildOptions) *TableBuilder {
	opts.normalize()
	return &TableBuilder{
		name:    name,
		schema:  schema,
		meta:    meta,
		opts:    opts,
		cols:    make([][]int64, len(meta)),
		stats:   make([]colStatsBuilder, len(meta)),
		scratch: make([]int64, len(meta)),
	}
}

// Append adds one row of logical values: the codec, then the encoded cells.
// No load path calls it — host rows arrive encoded — it stays as the logical
// entry the tests build their tables through and as the reference the
// encoded path is checked against (TestEncodedPathBuildsTheSameReplica).
func (b *TableBuilder) Append(row []Value) error {
	if err := EncodeRow(b.meta, row, b.scratch); err != nil {
		return err
	}
	for c, enc := range b.scratch {
		b.add(c, enc)
	}
	return nil
}

// add buffers one encoded cell of column c.
func (b *TableBuilder) add(c int, enc int64) {
	b.cols[c] = append(b.cols[c], enc)
	b.stats[c].add(enc)
}

// AppendEncoded adds rows that are already in the columns' encoding (see
// Codec) — host rows as the row store holds them. The rows are read, never
// kept. The work is split over up to threads goroutines (the scan threads of
// §4.4), none of which allocates per row: first the rows are moved into the
// column buffers by row range, then each column's statistics, which depend
// on no other column, are taken by column range.
func (b *TableBuilder) AppendEncoded(rows [][]int64, threads int) error {
	for _, row := range rows {
		if len(row) != len(b.cols) {
			return fmt.Errorf("storage: row has %d values, schema has %d columns", len(row), len(b.cols))
		}
	}
	base := b.Rows()
	for c := range b.cols {
		b.cols[c] = slices.Grow(b.cols[c], len(rows))[:base+len(rows)]
	}
	split(threads, len(rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for c, enc := range rows[i] {
				b.cols[c][base+i] = enc
			}
		}
	})
	split(threads, len(b.cols), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			st := &b.stats[c]
			for _, enc := range b.cols[c][base:] {
				st.add(enc)
			}
		}
	})
	return nil
}

// split cuts [0, n) into up to threads contiguous ranges and runs fn on
// each, one goroutine per range, returning when all are done.
func split(threads, n int, fn func(lo, hi int)) {
	if threads <= 1 || n <= 1 {
		fn(0, n)
		return
	}
	per := (n + threads - 1) / threads
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, min(lo+per, n))
		}()
	}
	wg.Wait()
}

// Rows returns the number of buffered rows.
func (b *TableBuilder) Rows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return len(b.cols[0])
}

// Build finalizes the table: widths are chosen from the observed domains,
// the rows are cut into chunks in append order — every chunk but the last
// holds exactly ChunkRows rows, the invariant row ordinals are resolved by —
// and RLE is applied where it pays.
func (b *TableBuilder) Build() (*Table, error) {
	n := 0
	if b.schema.NumCols() > 0 {
		n = len(b.cols[0])
	}
	stats := buildStats(int64(n), b.stats)
	// Choose physical widths from observed min/max.
	for c := range b.meta {
		cs := stats.Cols[c]
		if n == 0 {
			b.meta[c].Width = coltypes.W8
			continue
		}
		b.meta[c].Width = coltypes.WidthFor(cs.Min, cs.Max)
	}

	cr := b.opts.ChunkRows
	chunks := make([]*Chunk, 0, (n+cr-1)/cr)
	for lo := 0; lo < n; lo += cr {
		hi := min(lo+cr, n)
		vecs := make([]*Vector, b.schema.NumCols())
		for c := range vecs {
			data := coltypes.New(b.meta[c].Width, hi-lo)
			for j, enc := range b.cols[c][lo:hi] {
				data.Set(j, enc)
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
			vecs[c] = v
		}
		chunks = append(chunks, NewChunk(vecs))
	}

	t := &Table{name: b.name, schema: b.schema}
	t.tracker = NewTracker(t)
	t.cur.Store(&version{meta: b.meta, stats: stats, snap: Snapshot{t: t, chunks: chunks, chunkRows: cr}})
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
