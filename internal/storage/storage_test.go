package storage

import (
	"fmt"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

func lineitemSchema() *Schema {
	return MustSchema(
		ColumnDef{Name: "l_orderkey", Type: coltypes.Int()},
		ColumnDef{Name: "l_quantity", Type: coltypes.Int()},
		ColumnDef{Name: "l_extendedprice", Type: coltypes.Decimal(2)},
		ColumnDef{Name: "l_shipdate", Type: coltypes.Date()},
		ColumnDef{Name: "l_returnflag", Type: coltypes.String()},
	)
}

// baseChunks returns the current version's base chunks, in build order.
func baseChunks(tbl *Table) []*Chunk { return tbl.cur.Load().snap.chunks }

func buildTestTable(t *testing.T, rows int, opts BuildOptions) *Table {
	t.Helper()
	b := NewTableBuilder("lineitem", lineitemSchema(), opts)
	flags := []string{"A", "N", "R"}
	for i := 0; i < rows; i++ {
		err := b.Append([]Value{
			IntValue(int64(i / 4)),
			IntValue(int64(i%50 + 1)),
			DecString(fmt.Sprintf("%d.%02d", 100+i%900, i%100)),
			DateValue(1995, 1+(i%12), 1+(i%28)),
			StrValue(flags[i%3]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestSchema(t *testing.T) {
	s := lineitemSchema()
	if s.NumCols() != 5 {
		t.Fatalf("NumCols = %d", s.NumCols())
	}
	if s.ColIndex("l_shipdate") != 3 || s.ColIndex("nope") != -1 {
		t.Fatal("ColIndex wrong")
	}
	if s.Col(0).Name != "l_orderkey" {
		t.Fatal("Col wrong")
	}
	if s.NumCols() != 5 || s.Col(4).Name != "l_returnflag" {
		t.Fatal("column order wrong")
	}
	if _, err := NewSchema(ColumnDef{Name: "a"}, ColumnDef{Name: "a"}); err == nil {
		t.Fatal("duplicate columns should fail")
	}
	if _, err := NewSchema(ColumnDef{Name: ""}); err == nil {
		t.Fatal("empty name should fail")
	}
}

func TestValues(t *testing.T) {
	if IntValue(7).String() != "7" {
		t.Fatal("int value")
	}
	if DecString("1.25").String() != "1.25" {
		t.Fatal("dec value")
	}
	if StrValue("hi").String() != "hi" {
		t.Fatal("str value")
	}
	if BoolValue(true).String() != "true" || BoolValue(false).String() != "false" {
		t.Fatal("bool value")
	}
	d := DateValue(1995, 3, 15)
	if DateToString(d.Days()) != "1995-03-15" {
		t.Fatalf("date round trip: %s", DateToString(d.Days()))
	}
	if p, err := ParseDate("1998-12-01"); err != nil || DateToString(p.Days()) != "1998-12-01" {
		t.Fatal("ParseDate round trip")
	}
	if _, err := ParseDate("12/01/1998"); err == nil {
		t.Fatal("bad date should fail")
	}
	if DateValue(1970, 1, 1).Days() != 0 {
		t.Fatal("epoch should be day 0")
	}
	if !IntValue(5).Equal(IntValue(5)) || IntValue(5).Equal(IntValue(6)) {
		t.Fatal("Equal int")
	}
	if !DecString("1.50").Equal(DecString("1.5")) {
		t.Fatal("Equal should compare decimals numerically")
	}
	if IntValue(1).Equal(BoolValue(true)) {
		t.Fatal("Equal must respect kinds")
	}
}

func TestBuildLayout(t *testing.T) {
	tbl := buildTestTable(t, 10000, BuildOptions{ChunkRows: 1024})
	if tbl.Rows() != 10000 {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	// Every chunk but the last holds exactly ChunkRows rows: the invariant
	// a row ordinal is resolved by (ord / ChunkRows, ord % ChunkRows).
	chunks := baseChunks(tbl)
	if len(chunks) != 10 { // ceil(10000/1024) = 10
		t.Fatalf("chunks = %d", len(chunks))
	}
	for i, c := range chunks {
		if want := min(1024, 10000-i*1024); c.rows != want {
			t.Fatalf("chunk %d holds %d rows, want %d", i, c.rows, want)
		}
	}
	// Width selection: quantity 1..50 fits W1; orderkey up to 2500 needs W2;
	// extendedprice scaled by 100 up to ~99999 needs W4.
	if tbl.Meta(1).Width != coltypes.W1 {
		t.Fatalf("quantity width = %d", tbl.Meta(1).Width)
	}
	if tbl.Meta(0).Width != coltypes.W2 {
		t.Fatalf("orderkey width = %d", tbl.Meta(0).Width)
	}
	if tbl.Meta(2).Width != coltypes.W4 {
		t.Fatalf("price width = %d", tbl.Meta(2).Width)
	}
	// Dictionary column: 3 distinct flags.
	if tbl.Meta(4).Dict.Len() != 3 {
		t.Fatalf("dict size = %d", tbl.Meta(4).Dict.Len())
	}
	// 16 KiB vector check: a 4-byte column of a full 4096-row chunk.
	tbl2 := buildTestTable(t, 4096, BuildOptions{})
	if got := baseChunks(tbl2)[0].Col(2).StoredBytes(); got != VectorSizeBytes {
		t.Fatalf("vector bytes = %d, want %d", got, VectorSizeBytes)
	}
}

func TestBuildStats(t *testing.T) {
	tbl := buildTestTable(t, 6000, BuildOptions{})
	st := tbl.Stats()
	if st.Rows != 6000 {
		t.Fatalf("stats rows = %d", st.Rows)
	}
	q := st.Cols[1] // quantity 1..50
	if q.Min != 1 || q.Max != 50 || q.NDV != 50 || !q.Exact {
		t.Fatalf("quantity stats = %+v", q)
	}
	f := st.Cols[4] // 3 flags
	if f.NDV != 3 {
		t.Fatalf("flag NDV = %d", f.NDV)
	}
}

func TestRoundTripValues(t *testing.T) {
	tbl := buildTestTable(t, 100, BuildOptions{})
	// Row 5: orderkey=1, quantity=6, price=105.05, date 1995-06-06, flag R.
	c := baseChunks(tbl)[0]
	get := func(col int) int64 { return c.Col(col).Data().Get(5) }
	if get(0) != 1 || get(1) != 6 {
		t.Fatalf("ints wrong: %v %v", get(0), get(1))
	}
	if price := (encoding.Decimal{Unscaled: get(2), Scale: tbl.Meta(2).Scale}); price.String() != "105.05" {
		t.Fatalf("price = %s", price)
	}
	if DateToString(get(3)) != "1995-06-06" {
		t.Fatalf("date = %s", DateToString(get(3)))
	}
	if flag := tbl.Meta(4).Dict.Value(int32(get(4))); flag != "R" {
		t.Fatalf("flag = %s", flag)
	}
}

func TestRLEBuild(t *testing.T) {
	s := MustSchema(
		ColumnDef{Name: "constant", Type: coltypes.Int()},
		ColumnDef{Name: "random", Type: coltypes.Int()},
	)
	b := NewTableBuilder("t", s, BuildOptions{TryRLE: true, ChunkRows: 1000})
	for i := 0; i < 1000; i++ {
		if err := b.Append([]Value{IntValue(42), IntValue(int64(i * 7919 % 1000))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl := b.MustBuild()
	cChunk := baseChunks(tbl)[0]
	if cChunk.Col(0).rle == nil {
		t.Fatal("constant column should be RLE")
	}
	if cChunk.Col(1).rle != nil {
		t.Fatal("random column should not be RLE")
	}
	// Decode must reproduce the data.
	d := cChunk.Col(0).Data()
	for i := 0; i < 1000; i++ {
		if d.Get(i) != 42 {
			t.Fatal("RLE decode wrong")
		}
	}
	if tbl.StoredBytes() <= 0 {
		t.Fatal("StoredBytes")
	}
}

func TestAppendErrors(t *testing.T) {
	b := NewTableBuilder("t", lineitemSchema(), BuildOptions{})
	if err := b.Append([]Value{IntValue(1)}); err == nil {
		t.Fatal("short row should fail")
	}
	if err := b.Append([]Value{
		StrValue("wrong"), IntValue(1), DecString("1"), DateValue(2000, 1, 1), StrValue("A"),
	}); err == nil {
		t.Fatal("kind mismatch should fail")
	}
}

// TestDSBExceptionAtLoad: a decimal that is not exact at the column's common
// scale is rejected — by Append and by the codec every other path encodes
// through — and leaves nothing behind; the replica holds no approximations.
func TestDSBExceptionAtLoad(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "d", Type: coltypes.Decimal(2)})
	b := NewTableBuilder("t", s, BuildOptions{})
	if err := b.Append([]Value{DecString("1.25")}); err != nil {
		t.Fatal(err)
	}
	// Scale 5 cannot be represented at common scale 2.
	if err := b.Append([]Value{DecString("0.00001")}); err == nil {
		t.Fatal("a decimal finer than the column scale was accepted")
	}
	// A coarser or equal scale is exact and goes through.
	if err := b.Append([]Value{DecString("3")}); err != nil {
		t.Fatal(err)
	}
	tbl := b.MustBuild()
	if tbl.Rows() != 2 {
		t.Fatalf("rows = %d, want the two exact ones", tbl.Rows())
	}
	d := baseChunks(tbl)[0].Col(0).Data()
	for r, want := range []string{"1.25", "3.00"} {
		if got := (encoding.Decimal{Unscaled: d.Get(r), Scale: tbl.Meta(0).Scale}); got.String() != want {
			t.Fatalf("row %d = %s, want %s", r, got, want)
		}
	}
	if _, err := tbl.Meta(0).Encode(DecString("0.125")); err == nil {
		t.Fatal("the codec accepted a decimal that does not fit scale 2")
	}
}

func TestEmptyTable(t *testing.T) {
	b := NewTableBuilder("empty", lineitemSchema(), BuildOptions{})
	tbl := b.MustBuild()
	if tbl.Rows() != 0 {
		t.Fatal("empty table rows")
	}
	snap := tbl.Snapshot(LatestSCN)
	if snap.TotalRows() != 0 || len(snap.Chunks()) != 0 {
		t.Fatal("empty snapshot")
	}
}
