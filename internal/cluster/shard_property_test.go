package cluster

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/storage"
)

// shardRows reads every row of a shard back as logical int64 tuples.
func shardRows(st *storage.Table) [][]int64 {
	var out [][]int64
	for _, cv := range st.Snapshot(storage.LatestSCN).Chunks() {
		for r := 0; r < cv.Rows; r++ {
			row := make([]int64, st.Schema().NumCols())
			for c := range row {
				row[c] = cv.Data(c).Get(r)
			}
			out = append(out, row)
		}
	}
	return out
}

func tupleBag(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func sameTupleBags(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkShardMap verifies the completeness invariant for one loaded table:
// every host row lives on exactly one node (the one its key routes to), and
// nothing else does.
func checkShardMap(t *testing.T, tray *Tray, want [][]int64) bool {
	t.Helper()
	tt := tray.tables["pt"]
	if tt == nil {
		t.Log("no shard map after load")
		return false
	}
	sm := tt.shards[0].ShardMap()
	if err := sm.Validate(); err != nil {
		t.Logf("invalid shard map: %v", err)
		return false
	}
	var all [][]int64
	for i := 0; i < tray.NumNodes(); i++ {
		rows := shardRows(tt.shards[i])
		for _, r := range rows {
			if owner := sm.NodeFor(r[sm.Key]); owner != i {
				t.Logf("row %v on node %d but NodeFor(%d) = %d", r, i, r[sm.Key], owner)
				return false
			}
		}
		all = append(all, rows...)
	}
	// Row-count equality plus multiset equality: together they say every
	// host row appears on exactly one node, no duplicates, no strays.
	if len(all) != len(want) {
		t.Logf("shards hold %d rows, host has %d", len(all), len(want))
		return false
	}
	if !sameTupleBags(tupleBag(all), tupleBag(want)) {
		t.Log("shard union is not the host multiset")
		return false
	}
	return true
}

// TestShardMapCompletenessProperty is the testing/quick property battery for
// the shard loader: for random data, node counts and hash key columns, (a) every
// host row lands on exactly one node and that node is NodeFor(key), (b) the
// union of shards is exactly the host multiset, and (c) mutating the host
// table and re-loading round-trips the new contents the same way.
func TestShardMapCompletenessProperty(t *testing.T) {
	prop := func(keys []int16, width, keyCol uint8) bool {
		n := 2 + int(width)%7 // 2..8 nodes
		db := hostdb.New()
		defer db.Close()
		schema := storage.MustSchema(
			storage.ColumnDef{Name: "k", Type: coltypes.Int()},
			storage.ColumnDef{Name: "a", Type: coltypes.Int()},
			storage.ColumnDef{Name: "b", Type: coltypes.Int()},
		)
		if _, err := db.CreateTable("pt", schema); err != nil {
			t.Log(err)
			return false
		}
		var want [][]int64
		rows := make([][]storage.Value, len(keys))
		for i, k := range keys {
			tuple := []int64{int64(k), int64(i), int64(k) * 3}
			want = append(want, tuple)
			rows[i] = []storage.Value{
				storage.IntValue(tuple[0]), storage.IntValue(tuple[1]), storage.IntValue(tuple[2]),
			}
		}
		if len(rows) > 0 {
			if _, err := db.Insert("pt", rows); err != nil {
				t.Log(err)
				return false
			}
		}
		if _, err := db.Load("pt", hostdb.LoadOptions{}); err != nil {
			t.Log(err)
			return false
		}

		tray, err := New(db, Config{Nodes: n})
		if err != nil {
			t.Log(err)
			return false
		}
		defer tray.Close()
		spec := &ShardSpec{Policy: storage.HashSharded, Key: int(keyCol) % 3}
		if err := tray.Load("pt", spec); err != nil {
			t.Log(err)
			return false
		}
		if !checkShardMap(t, tray, want) {
			return false
		}

		// Round-trip: mutate the host table, re-load, and the shards must
		// describe the new multiset under the same routing.
		extra := make([][]storage.Value, 0, len(keys)+1)
		for i, k := range keys {
			tuple := []int64{int64(k) + 1, int64(i) + 1000, int64(k)}
			want = append(want, tuple)
			extra = append(extra, []storage.Value{
				storage.IntValue(tuple[0]), storage.IntValue(tuple[1]), storage.IntValue(tuple[2]),
			})
		}
		tuple := []int64{7, -1, 21}
		want = append(want, tuple)
		extra = append(extra, []storage.Value{
			storage.IntValue(tuple[0]), storage.IntValue(tuple[1]), storage.IntValue(tuple[2]),
		})
		if _, err := db.Insert("pt", extra); err != nil {
			t.Log(err)
			return false
		}
		if _, err := db.Load("pt", hostdb.LoadOptions{}); err != nil {
			t.Log(err)
			return false
		}
		if err := tray.Load("pt", spec); err != nil {
			t.Log(err)
			return false
		}
		return checkShardMap(t, tray, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTrayLoadPlacesEncodedRows: Tray.Load routes host rows as the row store
// holds them. Over a string key (placed by dictionary code), a decimal key
// (by unscaled value) and an integer key, for hash, replicated and auto
// specs, after inserts, deletes and a key update: every live host row is
// on exactly the node NodeFor(encoded key) names — on every node when
// replicated — and no tombstone is anywhere.
func TestTrayLoadPlacesEncodedRows(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "k", Type: coltypes.String()},
		storage.ColumnDef{Name: "d", Type: coltypes.Decimal(2)},
		storage.ColumnDef{Name: "id", Type: coltypes.Int()},
	)
	if _, err := db.CreateTable("pt", schema); err != nil {
		t.Fatal(err)
	}
	const n = 300
	rows := make([][]storage.Value, n)
	for i := range rows {
		rows[i] = []storage.Value{
			storage.StrValue(fmt.Sprintf("key%d", i%37)),
			storage.DecString(fmt.Sprintf("%d.%02d", i%50, (i*25)%100)),
			storage.IntValue(int64(i)),
		}
	}
	if _, err := db.Insert("pt", rows); err != nil {
		t.Fatal(err)
	}
	deleted := map[int64]bool{}
	for i := 3; i < n; i += 7 {
		if _, err := db.Delete("pt", i); err != nil {
			t.Fatal(err)
		}
		deleted[int64(i)] = true
	}
	if _, err := db.Update("pt", 5, 0, storage.StrValue("a key no row had")); err != nil {
		t.Fatal(err)
	}
	ht, err := db.Table("pt")
	if err != nil {
		t.Fatal(err)
	}
	var live [][]int64
	if err := ht.ScanLive(func(rows [][]int64) error {
		for _, r := range rows {
			live = append(live, append([]int64(nil), r...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(live) != n-len(deleted) {
		t.Fatalf("host scan yields %d rows, want %d live", len(live), n-len(deleted))
	}

	const nodes = 4
	specs := map[string]*ShardSpec{
		"auto":          nil, // more than ReplicateMaxRows rows: hash on column 0
		"hash(string)":  {Policy: storage.HashSharded, Key: 0},
		"hash(decimal)": {Policy: storage.HashSharded, Key: 1},
		"hash(int)":     {Policy: storage.HashSharded, Key: 2},
		"replicated":    {Policy: storage.Replicated},
	}
	for name, spec := range specs {
		tray, err := New(db, Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if err := tray.Load("pt", spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tt := tray.tables["pt"]
		sm := tt.shards[0].ShardMap()
		var all [][]int64
		for i := 0; i < nodes; i++ {
			got := shardRows(tt.shards[i])
			for _, r := range got {
				if deleted[r[2]] {
					t.Fatalf("%s: deleted row %v on node %d", name, r, i)
				}
				if sm.Policy != storage.Replicated && sm.NodeFor(r[sm.Key]) != i {
					t.Fatalf("%s: row %v on node %d, NodeFor(%d) = %d", name, r, i, r[sm.Key], sm.NodeFor(r[sm.Key]))
				}
			}
			if sm.Policy == storage.Replicated {
				// Every node holds every live row, in host order.
				if fmt.Sprint(got) != fmt.Sprint(live) {
					t.Fatalf("%s: node %d does not hold the host's live rows", name, i)
				}
				continue
			}
			all = append(all, got...)
		}
		if sm.Policy != storage.Replicated && !sameTupleBags(tupleBag(all), tupleBag(live)) {
			t.Fatalf("%s: the shards' union (%d rows) is not the host's live rows (%d)", name, len(all), len(live))
		}
		tray.Close()
	}
}

// TestTrayLoadRejectsAKeyPastTheSchema: a shard key at or past the table's
// column count fails Load with hostdb.ErrNoSuchColumn before any row is
// routed, leaves the table unloaded, and releases the tray for the next Load.
func TestTrayLoadRejectsAKeyPastTheSchema(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	schema := storage.MustSchema(storage.ColumnDef{Name: "id", Type: coltypes.Int()})
	if _, err := db.CreateTable("m", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("m", [][]storage.Value{{storage.IntValue(1)}, {storage.IntValue(2)}}); err != nil {
		t.Fatal(err)
	}
	tray, err := New(db, Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tray.Close()
	for _, key := range []int{1, 5} {
		err := tray.Load("m", &ShardSpec{Policy: storage.HashSharded, Key: key})
		if !errors.Is(err, hostdb.ErrNoSuchColumn) {
			t.Fatalf("Key %d: Load = %v, want ErrNoSuchColumn", key, err)
		}
		if _, ok := tray.tables["m"]; ok {
			t.Fatalf("Key %d: a failed Load left the table loaded", key)
		}
	}
	if err := tray.Load("m", &ShardSpec{Policy: storage.HashSharded, Key: 0}); err != nil {
		t.Fatal(err)
	}
}
