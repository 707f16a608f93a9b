package tpch

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

var (
	sharedOnce sync.Once
	sharedDB   *hostdb.Database
)

// testDB returns a shared small TPC-H database (building it once keeps the
// suite fast).
func testDB(t testing.TB) *hostdb.Database {
	t.Helper()
	sharedOnce.Do(func() {
		db := hostdb.New()
		if err := PopulateHostDB(db, Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		sharedDB = db
	})
	return sharedDB
}

func TestGenerateShape(t *testing.T) {
	d := Generate(Config{ScaleFactor: 0.002, Seed: 1})
	if len(d.Tables["region"]) != 5 || len(d.Tables["nation"]) != 25 {
		t.Fatal("region/nation counts")
	}
	orders := len(d.Tables["orders"])
	lines := len(d.Tables["lineitem"])
	if orders < 150 {
		t.Fatalf("orders = %d", orders)
	}
	// 1..7 lineitems per order, average ~4.
	if lines < 2*orders || lines > 7*orders {
		t.Fatalf("lineitem/orders ratio = %d/%d", lines, orders)
	}
	if len(d.Tables["partsupp"]) != 4*len(d.Tables["part"]) {
		t.Fatal("partsupp must be 4 per part")
	}
	// Determinism.
	d2 := Generate(Config{ScaleFactor: 0.002, Seed: 1})
	if len(d2.Tables["lineitem"]) != lines {
		t.Fatal("generation not deterministic")
	}
	r1 := d.Tables["lineitem"][10]
	r2 := d2.Tables["lineitem"][10]
	for c := range r1 {
		if !r1[c].Equal(r2[c]) {
			t.Fatal("row content not deterministic")
		}
	}
}

func TestGenerateSkew(t *testing.T) {
	d := Generate(Config{ScaleFactor: 0.002, Seed: 7, SkewZipf: 1.5})
	counts := map[int64]int{}
	for _, row := range d.Tables["lineitem"] {
		counts[row[1].Int]++ // l_partkey
	}
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	// Zipf 1.5: the hottest part should hold a large share.
	if float64(max)/float64(total) < 0.05 {
		t.Fatalf("skew too mild: max part has %d of %d rows", max, total)
	}
}

func TestLineitemDateInvariants(t *testing.T) {
	d := Generate(Config{ScaleFactor: 0.002, Seed: 3})
	for i, row := range d.Tables["lineitem"] {
		ship, receipt := row[10].Int, row[12].Int
		if receipt <= ship {
			t.Fatalf("row %d: receipt %d <= ship %d", i, receipt, ship)
		}
		if row[4].Int < 1 || row[4].Int > 50 {
			t.Fatalf("row %d: quantity %d", i, row[4].Int)
		}
		if row[6].Int < 0 || row[6].Int > 10 { // discount cents
			t.Fatalf("row %d: discount %d", i, row[6].Int)
		}
	}
}

func TestPopulateAndLoad(t *testing.T) {
	db := testDB(t)
	for _, name := range TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Rapid() == nil {
			t.Fatalf("%s not loaded", name)
		}
		if tbl.Rows() != tbl.Rapid().Rows() {
			t.Fatalf("%s: host %d vs rapid %d rows", name, tbl.Rows(), tbl.Rapid().Rows())
		}
	}
}

// Every benchmark query must produce identical results on the host Volcano
// engine and on both RAPID configurations — the three-way oracle check.
func TestAllQueriesAgreeAcrossEngines(t *testing.T) {
	db := testDB(t)
	for _, q := range Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			host, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost})
			if err != nil {
				t.Fatalf("host: %v", err)
			}
			rapidX86, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
			if err != nil {
				t.Fatalf("rapid x86: %v", err)
			}
			rapidDPU, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU})
			if err != nil {
				t.Fatalf("rapid dpu: %v", err)
			}
			if !rapidX86.Offloaded || !rapidDPU.Offloaded {
				t.Fatal("offload did not happen")
			}
			ordered := strings.Contains(q.SQL, "ORDER BY")
			if !sameResult(host.Rel, rapidX86.Rel, ordered) {
				t.Fatalf("host vs rapid-x86 disagree: %d vs %d rows\n%s",
					host.Rel.Rows(), rapidX86.Rel.Rows(), dump(host.Rel, rapidX86.Rel))
			}
			if !sameResult(rapidX86.Rel, rapidDPU.Rel, ordered) {
				t.Fatal("rapid-x86 vs rapid-dpu disagree")
			}
			if host.Rel.Rows() == 0 && q.Name != "Q21lite" {
				t.Fatalf("%s returned no rows — workload or query broken", q.Name)
			}
		})
	}
}

type rendered interface {
	Rows() int
	NumCols() int
	Render(int, int) string
}

func rowKey(r rendered, i int) string {
	var sb strings.Builder
	for c := 0; c < r.NumCols(); c++ {
		sb.WriteString(r.Render(i, c))
		sb.WriteByte('|')
	}
	return sb.String()
}

func sameResult(a, b rendered, ordered bool) bool {
	if a.Rows() != b.Rows() || a.NumCols() != b.NumCols() {
		return false
	}
	if ordered {
		// Tie rows may legally reorder; compare as multisets of full rows
		// plus verifying the ordered prefix of the first sort column would
		// be overkill here — multiset equality is the portable check.
	}
	counts := map[string]int{}
	for i := 0; i < a.Rows(); i++ {
		counts[rowKey(a, i)]++
	}
	for i := 0; i < b.Rows(); i++ {
		counts[rowKey(b, i)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

func dump(a, b rendered) string {
	var sb strings.Builder
	n := a.Rows()
	if b.Rows() < n {
		n = b.Rows()
	}
	if n > 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		sb.WriteString("A: " + rowKey(a, i) + "\n")
		sb.WriteString("B: " + rowKey(b, i) + "\n")
	}
	return sb.String()
}

func TestQ1Shape(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(mustQ(t, "Q1").SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	// Q1 groups: (A,F), (N,F), (N,O), (R,F) — at most 4, at least 3.
	if res.Rel.Rows() < 3 || res.Rel.Rows() > 4 {
		t.Fatalf("Q1 groups = %d", res.Rel.Rows())
	}
	// avg_qty between 1 and 50 at scale 2 (100..5000).
	avgIdx := 6
	for i := 0; i < res.Rel.Rows(); i++ {
		v := res.Rel.Col(avgIdx).Get(i)
		if v < 100 || v > 5000 {
			t.Fatalf("avg_qty out of range: %d", v)
		}
	}
}

func TestQ6ReferenceValue(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(mustQ(t, "Q6").SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	// Independent reference evaluation straight over the generated data.
	d := Generate(Config{ScaleFactor: 0.002, Seed: 42})
	lo := storage.DateValue(1994, 1, 1).Days()
	hi := storage.DateValue(1995, 1, 1).Days()
	var want int64
	for _, row := range d.Tables["lineitem"] {
		ship := row[10].Int
		disc := row[6].Dec.Unscaled // scale 2
		qty := row[4].Int
		if ship >= lo && ship < hi && disc >= 5 && disc <= 7 && qty < 24 {
			price := row[5].Dec.Unscaled // scale 2
			want += price * disc         // scale 4
		}
	}
	if got := res.Rel.Col(0).Get(0); got != want {
		t.Fatalf("Q6 revenue = %d, want %d", got, want)
	}
}

func TestOffloadFractionIsHigh(t *testing.T) {
	// Fig 15's premise: nearly all elapsed time is inside RAPID. The
	// fraction is of wall time, so one run can be slowed on its host side by
	// a loaded machine: the median of five is the measure.
	db := testDB(t)
	fractions := make([]float64, 5)
	for i := range fractions {
		res, err := db.Query(mustQ(t, "Q1").SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
		if err != nil {
			t.Fatal(err)
		}
		fractions[i] = res.RapidFraction()
	}
	sort.Float64s(fractions)
	if median := fractions[2]; median < 0.5 {
		t.Fatalf("median RAPID fraction = %.2f (runs %.2f) — offload accounting broken", median, fractions)
	}
}

func mustQ(t testing.TB, name string) Query {
	t.Helper()
	q, ok := QueryByName(name)
	if !ok {
		t.Fatalf("no query %s", name)
	}
	return q
}
