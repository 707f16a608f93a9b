package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// encodedScenario is one random build: a schema over every kind, rows of
// logical values, and a layout.
type encodedScenario struct {
	schema *Schema
	rows   [][]Value
	opts   BuildOptions // SharedDicts filled per build by dicts()
	shared []bool       // per column: the string column's dictionary is shared
}

var encodedKinds = []coltypes.Type{
	coltypes.Int(), coltypes.Decimal(0), coltypes.Decimal(2), coltypes.Decimal(4),
	coltypes.Date(), coltypes.String(), coltypes.Bool(),
}

func newEncodedScenario(rng *rand.Rand) *encodedScenario {
	ncols := len(encodedKinds) + rng.Intn(3)
	defs := make([]ColumnDef, ncols)
	sc := &encodedScenario{shared: make([]bool, ncols)}
	for c := range defs {
		// Every kind at least once, then repeats.
		ty := encodedKinds[c%len(encodedKinds)]
		if c >= len(encodedKinds) {
			ty = encodedKinds[rng.Intn(len(encodedKinds))]
		}
		defs[c] = ColumnDef{Name: fmt.Sprintf("c%d", c), Type: ty}
		sc.shared[c] = ty.Kind == coltypes.KindString && rng.Intn(2) == 0
	}
	sc.schema = MustSchema(defs...)
	sc.opts = BuildOptions{ChunkRows: 1 + rng.Intn(40), TryRLE: rng.Intn(2) == 0, Partitions: 1, PartitionKey: -1}
	if rng.Intn(2) == 0 {
		sc.opts.Partitions = 3
		if rng.Intn(2) == 0 {
			sc.opts.PartitionKey = rng.Intn(ncols)
		}
	}
	nrows := 0
	if rng.Intn(8) != 0 {
		nrows = rng.Intn(400)
	}
	// A column draws from a narrow or a wide domain, so widths differ.
	span := make([]int64, ncols)
	for c := range span {
		span[c] = []int64{3, 200, 70000, 1 << 40}[rng.Intn(4)]
	}
	for r := 0; r < nrows; r++ {
		sc.rows = append(sc.rows, sc.randomRow(rng, span))
	}
	return sc
}

func (sc *encodedScenario) randomRow(rng *rand.Rand, span []int64) []Value {
	row := make([]Value, sc.schema.NumCols())
	for c := range row {
		ty := sc.schema.Col(c).Type
		n := rng.Int63n(span[c]) - span[c]/3
		switch ty.Kind {
		case coltypes.KindDecimal:
			// Any scale up to the column's is exact at the column's.
			row[c] = DecValue(encoding.Decimal{Unscaled: n, Scale: int8(rng.Intn(int(ty.Scale) + 1))})
		case coltypes.KindDate:
			row[c] = Value{Kind: coltypes.KindDate, Int: n}
		case coltypes.KindString:
			row[c] = StrValue(fmt.Sprintf("s%d", n%97))
		case coltypes.KindBool:
			row[c] = BoolValue(n%2 == 0)
		default:
			row[c] = IntValue(n)
		}
	}
	return row
}

// dicts returns the SharedDicts of one build: the scenario's shared
// dictionaries where a column has one, nil (a fresh one) elsewhere.
func (sc *encodedScenario) dicts(shared []*encoding.Dict) []*encoding.Dict {
	out := make([]*encoding.Dict, len(shared))
	for c := range out {
		if sc.shared[c] {
			out[c] = shared[c]
		}
	}
	return out
}

// TestEncodedPathBuildsTheSameReplica: a table built by handing the builder
// rows already encoded (what hostdb.Load and Tray.Load do) equals the one
// built through Append([]Value), the logical reference: cell for cell, and in
// widths, RLE, chunking, zone maps, statistics, BaseRowRef and dictionaries.
// Then one update unit — inserts, patches, deletes, a patch of an inserted
// row — reads the same through both.
func TestEncodedPathBuildsTheSameReplica(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := newEncodedScenario(rng)
		ncols := sc.schema.NumCols()
		// Shared dictionaries start non-empty, as a host table's do.
		shared := make([]*encoding.Dict, ncols)
		for c := range shared {
			shared[c] = encoding.NewDict()
			shared[c].Add("preloaded")
		}

		ref := NewTableBuilder("t", sc.schema, withDicts(sc.opts, sc.dicts(shared)))
		for _, row := range sc.rows {
			if err := ref.Append(row); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		enc := NewTableBuilder("t", sc.schema, withDicts(sc.opts, sc.dicts(shared)))
		rows := make([][]int64, len(sc.rows))
		for i, row := range sc.rows {
			rows[i] = make([]int64, ncols)
			if err := EncodeRow(enc.meta, row, rows[i]); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		// In one call or in two, on one thread or several.
		cut := 0
		if len(rows) > 0 {
			cut = rng.Intn(len(rows) + 1)
		}
		for _, part := range [][][]int64{rows[:cut], rows[cut:]} {
			if err := enc.AppendEncoded(part, 1+rng.Intn(5)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		a, b := ref.MustBuild(), enc.MustBuild()
		what := fmt.Sprintf("seed %d (%d rows, %+v)", seed, len(rows), sc.opts)
		sameBase(t, what, sc, a, b, shared)

		uu := randomUnit(rng, sc, a)
		for _, tbl := range []*Table{a, b} {
			if err := tbl.Tracker().Apply(encodeUnit(t, tbl, uu)); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		sameViews(t, what, a, b)
	}
}

func withDicts(o BuildOptions, dicts []*encoding.Dict) BuildOptions {
	o.SharedDicts = dicts
	return o
}

// sameBase compares two freshly built tables.
func sameBase(t *testing.T, what string, sc *encodedScenario, a, b *Table, shared []*encoding.Dict) {
	t.Helper()
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", what, a.Stats(), b.Stats())
	}
	for c := 0; c < sc.schema.NumCols(); c++ {
		ma, mb := a.Meta(c), b.Meta(c)
		if ma.Width != mb.Width || ma.Scale != mb.Scale || ma.RLE != mb.RLE || ma.Def != mb.Def {
			t.Fatalf("%s: column %d meta differs: %+v vs %+v", what, c, ma, mb)
		}
		switch {
		case ma.Def.Type.Kind != coltypes.KindString:
			if ma.Dict != nil || mb.Dict != nil {
				t.Fatalf("%s: column %d has a dictionary", what, c)
			}
		case sc.shared[c]:
			if ma.Dict != shared[c] || mb.Dict != shared[c] {
				t.Fatalf("%s: column %d does not hold the shared dictionary", what, c)
			}
		default:
			if ma.Dict == mb.Dict || ma.Dict == shared[c] || ma.Dict.Len() != mb.Dict.Len() {
				t.Fatalf("%s: column %d fresh dictionaries: %p %p", what, c, ma.Dict, mb.Dict)
			}
			for code := 0; code < ma.Dict.Len(); code++ {
				if ma.Dict.Value(int32(code)) != mb.Dict.Value(int32(code)) {
					t.Fatalf("%s: column %d code %d differs", what, c, code)
				}
			}
		}
	}
	if a.NumPartitions() != b.NumPartitions() || a.StoredBytes() != b.StoredBytes() {
		t.Fatalf("%s: %d partitions / %d bytes vs %d / %d", what,
			a.NumPartitions(), a.StoredBytes(), b.NumPartitions(), b.StoredBytes())
	}
	for p := 0; p < a.NumPartitions(); p++ {
		pa, pb := a.Partition(p), b.Partition(p)
		if pa.NumChunks() != pb.NumChunks() {
			t.Fatalf("%s: partition %d has %d vs %d chunks", what, p, pa.NumChunks(), pb.NumChunks())
		}
		for ci := 0; ci < pa.NumChunks(); ci++ {
			ca, cb := pa.Chunk(ci), pb.Chunk(ci)
			if ca.Rows() != cb.Rows() {
				t.Fatalf("%s: chunk %d/%d rows %d vs %d", what, p, ci, ca.Rows(), cb.Rows())
			}
			for c := 0; c < a.Schema().NumCols(); c++ {
				va, vb := ca.Col(c), cb.Col(c)
				za, oka := ca.Zone(c)
				zb, okb := cb.Zone(c)
				if va.Data().Width() != vb.Data().Width() || (va.rle != nil) != (vb.rle != nil) ||
					va.StoredBytes() != vb.StoredBytes() || za != zb || oka != okb {
					t.Fatalf("%s: chunk %d/%d column %d layout differs", what, p, ci, c)
				}
				da, db := va.Data(), vb.Data()
				for r := 0; r < ca.Rows(); r++ {
					// Compare what a reader sees: fresh dictionaries assign
					// the same codes, so the cells are equal as integers too.
					if da.Get(r) != db.Get(r) || cell(a, c, da.Get(r)) != cell(b, c, db.Get(r)) {
						t.Fatalf("%s: cell %d/%d/%d column %d: %d vs %d", what, p, ci, r, c, da.Get(r), db.Get(r))
					}
				}
			}
		}
	}
	for ord := 0; ord <= len(sc.rows)+1; ord++ { // past the end too
		if a.BaseRowRef(ord) != b.BaseRowRef(ord) {
			t.Fatalf("%s: BaseRowRef(%d) = %+v vs %+v", what, ord, a.BaseRowRef(ord), b.BaseRowRef(ord))
		}
	}
}

// logicalUnit is an update unit in logical values.
type logicalUnit struct {
	inserts [][]Value
	patches []logicalPatch
	deletes []RowRef
}

type logicalPatch struct {
	ref RowRef
	col int
	val Value
}

func randomUnit(rng *rand.Rand, sc *encodedScenario, tbl *Table) *logicalUnit {
	span := make([]int64, sc.schema.NumCols())
	for c := range span {
		span[c] = 1 << 33 // wider than any base width
	}
	uu := &logicalUnit{}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		uu.inserts = append(uu.inserts, sc.randomRow(rng, span))
	}
	refs := []RowRef{{Part: DeltaPart, Row: rng.Intn(len(uu.inserts))}} // a row this unit inserts
	for i := 0; i < 4 && len(sc.rows) > 0; i++ {
		refs = append(refs, tbl.BaseRowRef(rng.Intn(len(sc.rows))))
	}
	for _, ref := range refs {
		col := rng.Intn(sc.schema.NumCols())
		uu.patches = append(uu.patches, logicalPatch{ref, col, sc.randomRow(rng, span)[col]})
	}
	uu.deletes = refs[len(refs)/2:]
	return uu
}

// encodeUnit puts a logical unit into tbl's encoding.
func encodeUnit(t *testing.T, tbl *Table, lu *logicalUnit) UpdateUnit {
	t.Helper()
	uu := UpdateUnit{SCN: 1, Deletes: lu.deletes}
	meta := make([]ColumnMeta, tbl.Schema().NumCols())
	for c := range meta {
		meta[c] = tbl.Meta(c)
	}
	for _, row := range lu.inserts {
		enc := make([]int64, len(meta))
		if err := EncodeRow(meta, row, enc); err != nil {
			t.Fatal(err)
		}
		uu.Inserts = append(uu.Inserts, enc)
	}
	for _, p := range lu.patches {
		enc, err := meta[p.col].Encode(p.val)
		if err != nil {
			t.Fatal(err)
		}
		uu.Patches = append(uu.Patches, CellPatch{Ref: p.ref, Col: p.col, Val: enc})
	}
	return uu
}

// cell is what a reader makes of an encoded cell: the string behind a
// dictionary code, the integer itself otherwise (two tables of one schema
// store a decimal at one scale).
func cell(t *Table, col int, enc int64) any {
	if d := t.Meta(col).Dict; d != nil {
		return d.Value(int32(enc))
	}
	return enc
}

// sameViews compares what a reader of the newest version sees.
func sameViews(t *testing.T, what string, a, b *Table) {
	t.Helper()
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("%s: stats differ after the unit:\n%+v\n%+v", what, a.Stats(), b.Stats())
	}
	sa, sb := a.Snapshot(LatestSCN), b.Snapshot(LatestSCN)
	va, vb := sa.Chunks(), sb.Chunks()
	if sa.TotalRows() != sb.TotalRows() || len(va) != len(vb) {
		t.Fatalf("%s: %d rows in %d views vs %d in %d", what, sa.TotalRows(), len(va), sb.TotalRows(), len(vb))
	}
	for i := range va {
		if va[i].Rows != vb[i].Rows || (va[i].Deleted == nil) != (vb[i].Deleted == nil) {
			t.Fatalf("%s: view %d shape differs", what, i)
		}
		for c := 0; c < a.Schema().NumCols(); c++ {
			za, oka := va[i].Zone(c)
			zb, okb := vb[i].Zone(c)
			da, db := va[i].Data(c), vb[i].Data(c)
			if za != zb || oka != okb || da.Width() != db.Width() {
				t.Fatalf("%s: view %d column %d zone or width differs", what, i, c)
			}
			for r := 0; r < va[i].Rows; r++ {
				if va[i].Deleted != nil && va[i].Deleted.Test(r) != vb[i].Deleted.Test(r) {
					t.Fatalf("%s: view %d row %d deleted on one side", what, i, r)
				}
				if cell(a, c, da.Get(r)) != cell(b, c, db.Get(r)) {
					t.Fatalf("%s: view %d row %d column %d: %d vs %d", what, i, r, c, da.Get(r), db.Get(r))
				}
			}
		}
	}
}
