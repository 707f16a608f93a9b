package storage

import "fmt"

// ShardPolicy selects how a table's rows are distributed over the nodes of
// a RAPID tray (paper §7.4 runs SF1000 sharded over 8 servers).
type ShardPolicy int

const (
	// Replicated stores a full copy of the table on every node. Right for
	// small dimension tables: joins against them never need an exchange.
	Replicated ShardPolicy = iota
	// HashSharded routes row r to node uint64(enc(key)) % Nodes.
	HashSharded
)

func (p ShardPolicy) String() string {
	switch p {
	case Replicated:
		return "replicated"
	case HashSharded:
		return "hash"
	}
	return fmt.Sprintf("ShardPolicy(%d)", int(p))
}

// ShardMap describes how one logical table is split across tray nodes. The
// same map doubles as the partitioning function of exchange operators: a
// shuffle that re-partitions a relation "by hash on column k over N nodes"
// is exactly ShardMap{Policy: HashSharded, Key: k, Nodes: N}.
type ShardMap struct {
	Policy ShardPolicy
	// Key is the sharding column (encoded-value domain); unused when
	// Replicated.
	Key int
	// Nodes is the tray width the map was built for.
	Nodes int
}

// Validate checks internal consistency.
func (m *ShardMap) Validate() error {
	if m.Nodes <= 0 {
		return fmt.Errorf("storage: shard map needs Nodes >= 1, got %d", m.Nodes)
	}
	switch m.Policy {
	case Replicated:
		return nil
	case HashSharded:
		if m.Key < 0 {
			return fmt.Errorf("storage: hash shard map needs a key column")
		}
		return nil
	}
	return fmt.Errorf("storage: unknown shard policy %d", int(m.Policy))
}

// NodeFor returns the owning node of an encoded key value. For Replicated
// maps every node owns the row; NodeFor returns 0 (the canonical owner).
func (m *ShardMap) NodeFor(enc int64) int {
	if m.Policy == HashSharded {
		return int(uint64(enc) % uint64(m.Nodes))
	}
	return 0
}

// SameFunction reports whether two maps route equal key values to the same
// node, i.e. relations partitioned by them on their join keys are
// co-partitioned and the join needs no exchange.
func (m *ShardMap) SameFunction(o *ShardMap) bool {
	return m != nil && o != nil && m.Policy == HashSharded && o.Policy == HashSharded && m.Nodes == o.Nodes
}

// SetShardMap records the tray shard map this table is one shard of (set by
// the cluster loader on each node replica).
func (t *Table) SetShardMap(m *ShardMap) { t.shard = m }

// ShardMap returns the shard map recorded by SetShardMap, or nil for
// single-node tables.
func (t *Table) ShardMap() *ShardMap { return t.shard }
