package bench

import (
	"fmt"
	"strings"

	"rapid/internal/hostdb"
	"rapid/internal/tpch"
)

// The one parameter set the figures are generated at. testdata/figures.golden
// is Run's output at exactly these values; changing one is a golden diff.
const (
	// microRows is the input size of the micro-benchmarks; the single-core
	// join kernels (Fig 11-13) run at kernelRows.
	microRows  = 1 << 20
	kernelRows = microRows / 16
	// TPCHScaleFactor is the scale of the system benchmarks — large enough
	// that per-node scan work dominates a tray's fixed costs (Q6 scaling)
	// and a shipdate-clustered lineitem spans enough tiles to prune.
	TPCHScaleFactor = 0.06
	tpchSeed        = 2018
)

var (
	trayNodes      = []int{1, 2, 4, 8}
	scalingQueries = []string{"Q1", "Q6", "Q12", "Q14", "Q18"}
	pruningQueries = []string{"Q6", "Q14"}
)

// SetupTPCH builds a host database with the TPC-H workload loaded into
// RAPID replicas.
func SetupTPCH(sf float64) (*hostdb.Database, error) {
	return setupTPCH(tpch.Config{ScaleFactor: sf, Seed: tpchSeed})
}

func setupTPCH(cfg tpch.Config) (*hostdb.Database, error) {
	db := hostdb.New()
	if err := tpch.PopulateHostDB(db, cfg); err != nil {
		return nil, err
	}
	return db, nil
}

// Figures is one run of every simulated-currency experiment.
type Figures struct {
	Fig4, Fig8, Fig9, Filter, Fig10, Fig11, Fig12, Fig13 *Table

	AblationJoin, AblationScheme, AblationFilterRepr, AblationCompactHT *Table

	Queries []QueryRun // every TPC-H query in ModeDPU (Fig 14)
	Scaling []ScalingRun
	Pruning []PruningRun
}

// Run executes every experiment at the constant parameter set.
func Run() (*Figures, error) {
	f := &Figures{
		Fig4: fig4(), Fig8: fig8(), Fig9: fig9(), Filter: filterMicro(),
		Fig10: fig10(), Fig11: fig11(), Fig12: fig12(), Fig13: fig13(),
		AblationJoin: ablationJoinAlgorithm(), AblationScheme: ablationPartitionScheme(),
		AblationFilterRepr: ablationFilterRepr(), AblationCompactHT: ablationCompactHT(),
	}
	db, err := SetupTPCH(TPCHScaleFactor)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer db.Close()
	if f.Queries, err = runQueries(db); err != nil {
		return nil, fmt.Errorf("fig 14: %w", err)
	}
	if f.Scaling, err = runScaling(db); err != nil {
		return nil, fmt.Errorf("scaling: %w", err)
	}
	// lineitem in l_shipdate order — the layout a date-partitioned warehouse
	// table would have (see tpch.Config.ClusterByShipDate).
	clustered, err := setupTPCH(tpch.Config{ScaleFactor: TPCHScaleFactor, Seed: tpchSeed, ClusterByShipDate: true})
	if err != nil {
		return nil, fmt.Errorf("clustered setup: %w", err)
	}
	defer clustered.Close()
	if f.Pruning, err = runPruning(clustered); err != nil {
		return nil, fmt.Errorf("pruning: %w", err)
	}
	return f, nil
}

// Tables returns every table in print order.
func (f *Figures) Tables() []*Table {
	return []*Table{
		f.Fig4, f.Fig8, f.Fig9, f.Filter, f.Fig10, f.Fig11, f.Fig12, f.Fig13,
		f.AblationJoin, f.AblationScheme, f.AblationFilterRepr, f.AblationCompactHT,
		pruningTable(f.Pruning), scalingTable(f.Scaling), fig14Table(f.Queries),
	}
}

// String renders the run: the text of testdata/figures.golden and of
// `rapid-bench`.
func (f *Figures) String() string {
	var sb strings.Builder
	sb.WriteString("RAPID reproduction: the paper's figures in simulated currency\n")
	fmt.Fprintf(&sb, "parameters: %d micro-benchmark rows, %d join-kernel rows, TPC-H SF %g seed %d, tray nodes %v\n",
		microRows, kernelRows, TPCHScaleFactor, tpchSeed, trayNodes)
	for _, t := range f.Tables() {
		sb.WriteString("\n" + t.String())
	}
	return sb.String()
}
