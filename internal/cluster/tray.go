package cluster

import (
	"fmt"
	"sync"

	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/plan"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

// Config tunes a tray.
type Config struct {
	// Nodes is the tray width (>= 1).
	Nodes int
	// ReplicateMaxRows is the auto-sharding threshold: tables at or below
	// it are replicated to every node, larger ones hash-sharded on column
	// 0. Default 64; negative disables replication (everything shards).
	ReplicateMaxRows int
	// Sched configures each node's shared-SoC scheduler (every node gets
	// its own pool; the Metrics field is overridden with the tray registry).
	Sched sched.Config
	// Metrics receives the tray's telemetry (net_* and per-node rapid_*
	// counters). Nil allocates a fresh registry.
	Metrics *obs.Registry
}

// ShardSpec requests an explicit sharding for one table.
type ShardSpec struct {
	Policy storage.ShardPolicy
	Key    int     // sharding column (HashSharded/RangeSharded)
	Bounds []int64 // RangeSharded split points (ascending, len Nodes-1)
}

// node is one tray member: a full SoC with its own scheduler/worker pool.
// Its table shards live in the tray's shared state (trayTable.shards[id]).
type node struct {
	sched *sched.Scheduler
}

// trayTable is the tray-side state of one loaded logical table.
type trayTable struct {
	spec    *ShardSpec // nil = auto; re-applied on reload
	shards  []*storage.Table
	loadSCN uint64 // host SCN the shards were built at
}

// Tray is an N-node RAPID cluster in front of one System X host database.
// The host remains the source of truth; Load builds per-node shard
// replicas (sharing the host dictionaries, so encoded values compare
// across nodes), and Query executes distributed plans over them.
type Tray struct {
	host *hostdb.Database
	reg  *obs.Registry
	cfg  Config

	nodes []*node

	mu     sync.Mutex
	tables map[string]*trayTable
}

// New builds a tray of cfg.Nodes full SoC nodes over the host database.
func New(host *hostdb.Database, cfg Config) (*Tray, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: tray needs Nodes >= 1, got %d", cfg.Nodes)
	}
	if cfg.ReplicateMaxRows == 0 {
		cfg.ReplicateMaxRows = 64
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Tray{
		host:   host,
		reg:    reg,
		cfg:    cfg,
		tables: make(map[string]*trayTable),
	}
	for i := 0; i < cfg.Nodes; i++ {
		sc := cfg.Sched
		sc.Metrics = reg
		t.nodes = append(t.nodes, &node{sched: sched.New(sc)})
	}
	t.describeMetrics()
	return t, nil
}

func (t *Tray) describeMetrics() {
	t.reg.Describe("rapid_net_exchanges_total", "Exchange operators executed on the tray interconnect.")
	t.reg.Describe("rapid_net_shuffles_total", "Shuffle exchanges executed.")
	t.reg.Describe("rapid_net_broadcasts_total", "Broadcast exchanges executed.")
	t.reg.Describe("rapid_net_gathers_total", "Gather exchanges executed.")
	t.reg.Describe("rapid_net_rows_total", "Rows moved across tray nodes (co-located deliveries excluded).")
	t.reg.Describe("rapid_net_bytes_total", "Bytes moved across tray nodes in the widened 8-byte exchange format.")
	t.reg.Describe("rapid_net_tiles_total", "Link messages (exchange tiles) sent between tray nodes.")
	t.reg.Describe("rapid_shards_pruned_total", "Node fragments skipped before fan-out because shard zone summaries proved them empty.")
	t.reg.Describe("rapid_tiles_pruned_total", "Storage tiles skipped by zone maps without DMEM admission, DMS traffic, cycles or energy.")
	t.reg.Describe("rapid_net_microseconds_total", "Modeled serialized interconnect time.")
	t.reg.Describe("rapid_net_energy_nanojoules_total", "Interconnect transfer energy (LinkFJPerByte).")
}

// NumNodes returns the tray width.
func (t *Tray) NumNodes() int { return len(t.nodes) }

// Metrics returns the tray's telemetry registry.
func (t *Tray) Metrics() *obs.Registry { return t.reg }

// NodeScheduler exposes node i's scheduler (tests occupy admission slots
// through it).
func (t *Tray) NodeScheduler(i int) *sched.Scheduler { return t.nodes[i].sched }

// Close stops every node's worker pool. In-flight queries fail with
// sched.ErrClosed.
func (t *Tray) Close() {
	for _, n := range t.nodes {
		n.sched.Close()
	}
}

// Load builds (or rebuilds) the per-node shard replicas of a host table.
// spec nil auto-shards: tables with at most ReplicateMaxRows rows are
// replicated, larger ones hash-sharded on column 0.
func (t *Tray) Load(table string, spec *ShardSpec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.loadLocked(table, spec)
}

func (t *Tray) loadLocked(table string, spec *ShardSpec) error {
	ht, err := t.host.Table(table)
	if err != nil {
		return err
	}
	loadSCN := t.host.CurrentSCN()
	n := len(t.nodes)

	// Every shard builder shares the host dictionaries: identical string
	// codes on every node make group keys, sort ranks and bound literals
	// comparable without recoding.
	opts := storage.BuildOptions{ChunkRows: storage.DefaultChunkRows, SharedDicts: ht.Dicts()}
	builders := make([]*storage.TableBuilder, n)
	for i := range builders {
		builders[i] = storage.NewTableBuilder(table, ht.Schema(), opts)
	}
	sm := &storage.ShardMap{Nodes: n}
	// The host rows are routed as they are: a shard map places by the encoded
	// key, which is what the row store holds.
	err = ht.ScanLive(func(rows [][]int64) error {
		switch {
		case spec != nil:
			sm.Policy, sm.Key = spec.Policy, spec.Key
			sm.Bounds = append([]int64(nil), spec.Bounds...)
		case t.cfg.ReplicateMaxRows >= 0 && len(rows) <= t.cfg.ReplicateMaxRows:
			sm.Policy = storage.Replicated
		default:
			sm.Policy, sm.Key = storage.HashSharded, 0
		}
		if err := sm.Validate(); err != nil {
			return err
		}
		perNode := make([][][]int64, n)
		if sm.Policy == storage.Replicated {
			for i := range perNode {
				perNode[i] = rows
			}
		} else {
			for _, row := range rows {
				node := sm.NodeFor(row[sm.Key])
				perNode[node] = append(perNode[node], row)
			}
		}
		for i, b := range builders {
			if err := b.AppendEncoded(perNode[i], 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tt := &trayTable{spec: spec, loadSCN: loadSCN, shards: make([]*storage.Table, n)}
	for i, b := range builders {
		st, err := b.Build()
		if err != nil {
			return err
		}
		st.SetShardMap(sm)
		tt.shards[i] = st
	}
	t.tables[table] = tt
	return nil
}

// shardsLocked returns a table's current shard set (shards[i] is node i's),
// transparently re-loading all of it when host mutations made it stale — the
// tray analog of the single-node SCN admissibility rule (§3.3): instead of
// falling back, the tray refreshes its replicas before binding. The caller
// holds t.mu.
func (t *Tray) shardsLocked(table string) ([]*storage.Table, error) {
	ht, err := t.host.Table(table)
	if err != nil {
		return nil, err
	}
	tt, ok := t.tables[table]
	if !ok {
		return nil, fmt.Errorf("cluster: table %q not loaded on the tray (run Load first)", table)
	}
	if ht.MutationSCN() > tt.loadSCN {
		if err := t.loadLocked(table, tt.spec); err != nil {
			return nil, err
		}
		tt = t.tables[table]
	}
	return tt.shards, nil
}

// resolve fixes what one query reads: under one hold of t.mu every table the
// bound plan references is resolved to its shard set exactly once, and the
// plan is returned re-targeted at those shards (its Scans at node 0's, which
// carry the set's ShardMap). Every node is bound from the returned sets
// (query.bind), so all Scans of a table — on every node, on both sides of a
// self-join — read one load, whatever reloads meanwhile. Of a plan-cache
// skeleton's Scans, which may point at bind-time replicas, only the table
// names are read.
func (t *Tray) resolve(bound plan.Node) (plan.Node, map[string][]*storage.Table, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sets := make(map[string][]*storage.Table)
	tree, err := plan.MapLeaves(bound, func(l plan.Node) (plan.Node, error) {
		s, ok := l.(*plan.Scan)
		if !ok {
			return nil, fmt.Errorf("cluster: cannot distribute plan leaf %T", l)
		}
		name := s.Table.Name()
		if _, ok := sets[name]; !ok {
			shards, err := t.shardsLocked(name)
			if err != nil {
				return nil, err
			}
			sets[name] = shards
		}
		return plan.NewScan(sets[name][0], s.SCN, s.Cols), nil
	})
	return tree, sets, err
}
