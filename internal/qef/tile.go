package qef

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
)

// MinTileRows is the minimum tile size: "the unit of transfer for operators
// is called a tile, and consists of 64+ rows" (paper §4.1).
const MinTileRows = 64

// DefaultTileRows is the default operator tile size. 256 rows of a 4-byte
// column is 1 KiB per buffer, leaving DMEM room for several operators per
// task.
const DefaultTileRows = 256

// Tile is the unit of data flowing between the operators of a task:
// DMEM-resident column vectors for N rows, plus an optional qualification
// state (bit-vector or RID list) supporting the filter operator's late
// materialization (§5.4). At most one of Sel and RIDs is non-nil; both nil
// means all rows qualify.
type Tile struct {
	Cols []coltypes.Data
	N    int

	Sel  *bits.Vector
	RIDs []uint32
}

// QualifyingRows returns the number of rows passing the selection state.
func (t *Tile) QualifyingRows() int {
	switch {
	case t.RIDs != nil:
		return len(t.RIDs)
	case t.Sel != nil:
		return t.Sel.Count()
	default:
		return t.N
	}
}

// AppendSelRIDs appends the qualifying row offsets to dst and returns it,
// converting from the bit-vector representation if needed. When the tile
// already carries a RID list it is returned directly (no copy) if dst is
// empty.
func (t *Tile) AppendSelRIDs(dst []uint32) []uint32 {
	switch {
	case t.RIDs != nil:
		if len(dst) == 0 {
			return t.RIDs
		}
		return append(dst, t.RIDs...)
	case t.Sel != nil:
		return t.Sel.ToRIDs(dst)
	default:
		for i := 0; i < t.N; i++ {
			dst = append(dst, uint32(i))
		}
		return dst
	}
}

// Dense reports whether all rows qualify.
func (t *Tile) Dense() bool { return t.Sel == nil && t.RIDs == nil }
