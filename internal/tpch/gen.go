// Package tpch provides a TPC-H-style workload: a deterministic dbgen-like
// generator for all eight tables at configurable scale, and the
// "representative half" of the TPC-H queries the paper evaluates (§7.4),
// expressed in the supported SQL subset.
//
// The generator follows the TPC-H schema and value distributions closely
// enough that query selectivities and join fan-outs have realistic shapes;
// it is not a validated dbgen replacement (the paper's absolute numbers are
// not reproducible on simulated hardware anyway — see DESIGN.md).
package tpch

import (
	"fmt"
	"math/rand"
	"sort"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/hostdb"
	"rapid/internal/storage"
)

// Config tunes the generator.
type Config struct {
	// ScaleFactor scales table cardinalities (1.0 = TPC-H SF1: 6M
	// lineitems). Typical test values: 0.001-0.1.
	ScaleFactor float64
	// Seed makes generation deterministic per seed.
	Seed int64
	// SkewZipf, when > 0, draws lineitem part/supplier keys from a zipfian
	// distribution to create join skew (s parameter, e.g. 1.2).
	SkewZipf float64
	// ClusterByShipDate sorts lineitem by l_shipdate before load, the layout
	// a date-partitioned warehouse table would have. Zone-map pruning
	// experiments depend on it: shipdate-range predicates (Q6, Q14) only
	// skip tiles when each tile covers a narrow date band.
	ClusterByShipDate bool
}

// Cardinalities at the configured scale.
func (c Config) counts() (supplier, customer, part, orders int) {
	sf := c.ScaleFactor
	if sf <= 0 {
		sf = 0.01
	}
	supplier = maxI(int(10_000*sf), 10)
	customer = maxI(int(150_000*sf), 30)
	part = maxI(int(200_000*sf), 40)
	orders = maxI(int(1_500_000*sf), 150)
	return
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []struct {
		name   string
		region int
	}{
		{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
		{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
		{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
		{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
		{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
		{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
		{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
	}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
		"MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG"}
	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	nameSyl  = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse"}
)

func dec(unscaled int64, scale int8) storage.Value {
	return storage.DecValue(encoding.Decimal{Unscaled: unscaled, Scale: scale})
}

// Schemas returns the eight TPC-H table schemas.
func Schemas() map[string]*storage.Schema {
	return map[string]*storage.Schema{
		"region": storage.MustSchema(
			storage.ColumnDef{Name: "r_regionkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "r_name", Type: coltypes.String()},
		),
		"nation": storage.MustSchema(
			storage.ColumnDef{Name: "n_nationkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "n_name", Type: coltypes.String()},
			storage.ColumnDef{Name: "n_regionkey", Type: coltypes.Int()},
		),
		"supplier": storage.MustSchema(
			storage.ColumnDef{Name: "s_suppkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "s_name", Type: coltypes.String()},
			storage.ColumnDef{Name: "s_nationkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "s_acctbal", Type: coltypes.Decimal(2)},
		),
		"customer": storage.MustSchema(
			storage.ColumnDef{Name: "c_custkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "c_name", Type: coltypes.String()},
			storage.ColumnDef{Name: "c_nationkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "c_acctbal", Type: coltypes.Decimal(2)},
			storage.ColumnDef{Name: "c_mktsegment", Type: coltypes.String()},
		),
		"part": storage.MustSchema(
			storage.ColumnDef{Name: "p_partkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "p_name", Type: coltypes.String()},
			storage.ColumnDef{Name: "p_brand", Type: coltypes.String()},
			storage.ColumnDef{Name: "p_type", Type: coltypes.String()},
			storage.ColumnDef{Name: "p_size", Type: coltypes.Int()},
			storage.ColumnDef{Name: "p_container", Type: coltypes.String()},
			storage.ColumnDef{Name: "p_retailprice", Type: coltypes.Decimal(2)},
		),
		"partsupp": storage.MustSchema(
			storage.ColumnDef{Name: "ps_partkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "ps_suppkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "ps_availqty", Type: coltypes.Int()},
			storage.ColumnDef{Name: "ps_supplycost", Type: coltypes.Decimal(2)},
		),
		"orders": storage.MustSchema(
			storage.ColumnDef{Name: "o_orderkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "o_custkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "o_orderstatus", Type: coltypes.String()},
			storage.ColumnDef{Name: "o_totalprice", Type: coltypes.Decimal(2)},
			storage.ColumnDef{Name: "o_orderdate", Type: coltypes.Date()},
			storage.ColumnDef{Name: "o_orderpriority", Type: coltypes.String()},
			storage.ColumnDef{Name: "o_shippriority", Type: coltypes.Int()},
		),
		"lineitem": storage.MustSchema(
			storage.ColumnDef{Name: "l_orderkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "l_partkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "l_suppkey", Type: coltypes.Int()},
			storage.ColumnDef{Name: "l_linenumber", Type: coltypes.Int()},
			storage.ColumnDef{Name: "l_quantity", Type: coltypes.Int()},
			storage.ColumnDef{Name: "l_extendedprice", Type: coltypes.Decimal(2)},
			storage.ColumnDef{Name: "l_discount", Type: coltypes.Decimal(2)},
			storage.ColumnDef{Name: "l_tax", Type: coltypes.Decimal(2)},
			storage.ColumnDef{Name: "l_returnflag", Type: coltypes.String()},
			storage.ColumnDef{Name: "l_linestatus", Type: coltypes.String()},
			storage.ColumnDef{Name: "l_shipdate", Type: coltypes.Date()},
			storage.ColumnDef{Name: "l_commitdate", Type: coltypes.Date()},
			storage.ColumnDef{Name: "l_receiptdate", Type: coltypes.Date()},
			storage.ColumnDef{Name: "l_shipinstruct", Type: coltypes.String()},
			storage.ColumnDef{Name: "l_shipmode", Type: coltypes.String()},
		),
	}
}

// Data is the fully generated dataset, as logical rows per table.
type Data struct {
	Tables map[string][][]storage.Value
}

// Generate produces the dataset.
func Generate(cfg Config) *Data {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 0.01
	}
	nSupp, nCust, nPart, nOrders := cfg.counts()
	d := &Data{Tables: map[string][][]storage.Value{}}

	// region, nation
	for i, r := range regions {
		d.Tables["region"] = append(d.Tables["region"], []storage.Value{
			storage.IntValue(int64(i)), storage.StrValue(r),
		})
	}
	for i, n := range nations {
		d.Tables["nation"] = append(d.Tables["nation"], []storage.Value{
			storage.IntValue(int64(i)), storage.StrValue(n.name), storage.IntValue(int64(n.region)),
		})
	}

	// supplier
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5001))
	for i := 0; i < nSupp; i++ {
		d.Tables["supplier"] = append(d.Tables["supplier"], []storage.Value{
			storage.IntValue(int64(i + 1)),
			storage.StrValue(fmt.Sprintf("Supplier#%09d", i+1)),
			storage.IntValue(int64(rng.Intn(len(nations)))),
			dec(int64(rng.Intn(2_000_000)-100_000), 2),
		})
	}

	// customer
	rng = rand.New(rand.NewSource(cfg.Seed ^ 0xC001))
	for i := 0; i < nCust; i++ {
		d.Tables["customer"] = append(d.Tables["customer"], []storage.Value{
			storage.IntValue(int64(i + 1)),
			storage.StrValue(fmt.Sprintf("Customer#%09d", i+1)),
			storage.IntValue(int64(rng.Intn(len(nations)))),
			dec(int64(rng.Intn(1_100_000)-100_000), 2),
			storage.StrValue(segments[rng.Intn(len(segments))]),
		})
	}

	// part
	rng = rand.New(rand.NewSource(cfg.Seed ^ 0xBA01))
	for i := 0; i < nPart; i++ {
		retail := int64(90000 + (i+1)%200*100 + rng.Intn(1000)) // ~900-1100
		d.Tables["part"] = append(d.Tables["part"], []storage.Value{
			storage.IntValue(int64(i + 1)),
			storage.StrValue(nameSyl[rng.Intn(len(nameSyl))] + " " + nameSyl[rng.Intn(len(nameSyl))]),
			storage.StrValue(fmt.Sprintf("Brand#%d%d", rng.Intn(5)+1, rng.Intn(5)+1)),
			storage.StrValue(typeSyl1[rng.Intn(len(typeSyl1))] + " " + typeSyl2[rng.Intn(len(typeSyl2))] + " " + typeSyl3[rng.Intn(len(typeSyl3))]),
			storage.IntValue(int64(rng.Intn(50) + 1)),
			storage.StrValue(containers[rng.Intn(len(containers))]),
			dec(retail, 2),
		})
	}

	// partsupp: 4 suppliers per part.
	rng = rand.New(rand.NewSource(cfg.Seed ^ 0xB5B5))
	for i := 0; i < nPart; i++ {
		for j := 0; j < 4; j++ {
			d.Tables["partsupp"] = append(d.Tables["partsupp"], []storage.Value{
				storage.IntValue(int64(i + 1)),
				storage.IntValue(int64((i+j*(nSupp/4+1))%nSupp + 1)),
				storage.IntValue(int64(rng.Intn(9999) + 1)),
				dec(int64(rng.Intn(100000)+100), 2),
			})
		}
	}

	// orders + lineitem
	rng = rand.New(rand.NewSource(cfg.Seed ^ 0x0DD5))
	var zipf *rand.Zipf
	if cfg.SkewZipf > 0 {
		zipf = rand.NewZipf(rng, cfg.SkewZipf, 1.0, uint64(nPart-1))
	}
	baseDate := storage.DateValue(1992, 1, 1).Days()
	dateRange := storage.DateValue(1998, 8, 2).Days() - baseDate
	statuses := []string{"O", "F", "P"}
	lineNo := 0
	for i := 0; i < nOrders; i++ {
		okey := int64(i + 1)
		odate := baseDate + int64(rng.Intn(int(dateRange)))
		nLines := rng.Intn(7) + 1
		var total int64
		rows := make([][]storage.Value, 0, nLines)
		for ln := 0; ln < nLines; ln++ {
			var partkey int64
			if zipf != nil {
				partkey = int64(zipf.Uint64()) + 1
			} else {
				partkey = int64(rng.Intn(nPart) + 1)
			}
			suppkey := int64((partkey+int64(ln)*(int64(nSupp)/4+1))%int64(nSupp) + 1)
			qty := int64(rng.Intn(50) + 1)
			price := qty * int64(90000+partkey%200*100) / 100 // scale 2
			disc := int64(rng.Intn(11))                       // 0.00-0.10
			tax := int64(rng.Intn(9))                         // 0.00-0.08
			ship := odate + int64(rng.Intn(121)+1)
			commit := odate + int64(rng.Intn(91)+30)
			receipt := ship + int64(rng.Intn(30)+1)
			flag := "N"
			status := "O"
			if receipt <= storage.DateValue(1995, 6, 17).Days() {
				if rng.Intn(2) == 0 {
					flag = "R"
				} else {
					flag = "A"
				}
				status = "F"
			}
			total += price
			rows = append(rows, []storage.Value{
				storage.IntValue(okey),
				storage.IntValue(partkey),
				storage.IntValue(suppkey),
				storage.IntValue(int64(ln + 1)),
				storage.IntValue(qty),
				dec(price, 2),
				dec(disc, 2),
				dec(tax, 2),
				storage.StrValue(flag),
				storage.StrValue(status),
				storage.Value{Kind: coltypes.KindDate, Int: ship},
				storage.Value{Kind: coltypes.KindDate, Int: commit},
				storage.Value{Kind: coltypes.KindDate, Int: receipt},
				storage.StrValue(instructs[rng.Intn(len(instructs))]),
				storage.StrValue(shipmodes[rng.Intn(len(shipmodes))]),
			})
			lineNo++
		}
		d.Tables["orders"] = append(d.Tables["orders"], []storage.Value{
			storage.IntValue(okey),
			storage.IntValue(int64(rng.Intn(nCust) + 1)),
			storage.StrValue(statuses[rng.Intn(len(statuses))]),
			dec(total, 2),
			storage.Value{Kind: coltypes.KindDate, Int: odate},
			storage.StrValue(priorities[rng.Intn(len(priorities))]),
			storage.IntValue(0),
		})
		d.Tables["lineitem"] = append(d.Tables["lineitem"], rows...)
	}
	if cfg.ClusterByShipDate {
		li := d.Tables["lineitem"]
		shipCol := Schemas()["lineitem"].ColIndex("l_shipdate")
		sort.SliceStable(li, func(a, b int) bool {
			return li[a][shipCol].Int < li[b][shipCol].Int
		})
	}
	return d
}

// PopulateHostDB creates and fills all tables in a host database and loads
// them into RAPID.
func PopulateHostDB(db *hostdb.Database, cfg Config) error {
	data := Generate(cfg)
	schemas := Schemas()
	for _, name := range TableNames() {
		if _, err := db.CreateTable(name, schemas[name]); err != nil {
			return err
		}
		if _, err := db.Insert(name, data.Tables[name]); err != nil {
			return err
		}
		// 1024-row chunks keep all 32 dpCores busy even at small scale
		// factors (a chunk is the parallel work grain of the scan).
		if _, err := db.Load(name, hostdb.LoadOptions{ScanThreads: 4, ChunkRows: 1024}); err != nil {
			return err
		}
	}
	return nil
}

// TableNames lists the tables in dependency order.
func TableNames() []string {
	return []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
}
