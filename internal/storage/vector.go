package storage

import (
	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// VectorSizeBytes is the sweet-spot vector size of the RAPID DPU: 16 KiB
// enables double buffering and DMS/compute overlap (paper §4.1).
const VectorSizeBytes = 16 * 1024

// DefaultChunkRows is the default number of rows per chunk: a 4-byte column
// vector of a chunk is then exactly the 16 KiB sweet spot.
const DefaultChunkRows = VectorSizeBytes / 4

// Vector is one column of one chunk: a flat fixed-width array, optionally
// held RLE-compressed (paper §4.2).
type Vector struct {
	flat coltypes.Data
	rle  *encoding.RLE
}

// NewVector wraps flat column data.
func NewVector(d coltypes.Data) *Vector { return &Vector{flat: d} }

// NewRLEVector wraps RLE-compressed data.
func NewRLEVector(r *encoding.RLE) *Vector { return &Vector{rle: r} }

// Len returns the row count.
func (v *Vector) Len() int {
	if v.rle != nil {
		return v.rle.Len()
	}
	return v.flat.Len()
}

// Data returns the decoded flat data. For RLE vectors this decodes into a
// fresh buffer each call (scans decode into DMEM on the DPU).
func (v *Vector) Data() coltypes.Data {
	if v.rle != nil {
		return v.rle.Decode()
	}
	return v.flat
}

// StoredBytes returns the storage footprint of the vector.
func (v *Vector) StoredBytes() int {
	if v.rle != nil {
		return v.rle.SizeBytes()
	}
	return v.flat.SizeBytes()
}

// Zone is one column's zone-map entry for one chunk (tile): the inclusive
// encoded min/max over the tile's rows. Zones are computed
// over the same encoded values predicates evaluate against, so a zone check
// agrees with predicate evaluation by construction.
type Zone struct {
	Min, Max int64
}

// Chunk is a horizontal slice of a partition: one Vector per table column,
// with a per-column zone map computed at build time.
type Chunk struct {
	rows  int
	cols  []*Vector
	zones []Zone
}

// NewChunk builds a chunk from per-column vectors, all of the same length,
// computing the per-column zone maps in the same pass.
func NewChunk(cols []*Vector) *Chunk {
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
		for i, c := range cols {
			if c.Len() != rows {
				panic("storage: ragged chunk")
			}
			_ = i
		}
	}
	zones := make([]Zone, len(cols))
	for i, c := range cols {
		var z Zone
		if rows > 0 {
			d := c.Data()
			z.Min, z.Max = d.Get(0), d.Get(0)
			for r := 1; r < rows; r++ {
				v := d.Get(r)
				if v < z.Min {
					z.Min = v
				}
				if v > z.Max {
					z.Max = v
				}
			}
		}
		zones[i] = z
	}
	return &Chunk{rows: rows, cols: cols, zones: zones}
}

// Zone returns the zone-map entry of column col; ok is false for empty
// chunks, whose zones carry no information.
func (c *Chunk) Zone(col int) (Zone, bool) {
	if c.rows == 0 || col < 0 || col >= len(c.zones) {
		return Zone{}, false
	}
	return c.zones[col], true
}

// Rows returns the chunk row count.
func (c *Chunk) Rows() int { return c.rows }

// Col returns column i of the chunk.
func (c *Chunk) Col(i int) *Vector { return c.cols[i] }

// Partition is a horizontal partition of a table: an ordered list of chunks.
type Partition struct {
	chunks []*Chunk
}

// NumChunks returns the chunk count.
func (p *Partition) NumChunks() int { return len(p.chunks) }

// Chunk returns chunk i.
func (p *Partition) Chunk(i int) *Chunk { return p.chunks[i] }

// Rows returns the partition row count.
func (p *Partition) Rows() int {
	n := 0
	for _, c := range p.chunks {
		n += c.rows
	}
	return n
}

// AppendChunk adds a chunk to the partition.
func (p *Partition) AppendChunk(c *Chunk) { p.chunks = append(p.chunks, c) }
