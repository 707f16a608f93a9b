package qcomp

import (
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/storage"
)

// ShardZonePruned reports whether a per-node plan fragment provably produces
// no rows, using the fragment's shard table statistics as one table-wide
// zone. The tray coordinator consults it before fan-out: a pruned fragment
// is never compiled, admitted, or executed on its node, and the coordinator
// substitutes an empty relation (sound only for union-semantics merges —
// materialize/gather — never for aggregations, whose empty input still
// yields identity rows).
//
// The proof is conservative both ways stats can drift: table statistics stay
// a min/max superset of the live encoded domain across update units (see
// storage.refreshStats), so a rejection here can only under-prune,
// never drop a live row.
func ShardZonePruned(root plan.Node) bool {
	scan, preds := scanFilterChain(root, nil)
	if scan == nil || len(preds) == 0 {
		return false
	}
	stats := scan.Table.Stats()
	if stats == nil || stats.Rows == 0 {
		return false
	}
	// Unmerged inserts live outside the base stats only until Apply widens
	// them in — which it does synchronously — so the table-wide zone below
	// covers the delta chunk too.
	cols := scanColumns(scan)
	zone := func(c int) (storage.Zone, bool) {
		if c < 0 || c >= len(scan.Cols) {
			return storage.Zone{}, false
		}
		tc := scan.Cols[c]
		if tc < 0 || tc >= len(stats.Cols) {
			return storage.Zone{}, false
		}
		cs := stats.Cols[tc]
		return storage.Zone{Min: cs.Min, Max: cs.Max}, true
	}
	for _, p := range preds {
		compiled, _, err := newExprc(cols).pred(p)
		if err != nil {
			return false
		}
		if ops.ZoneReject(compiled, zone) {
			return true
		}
	}
	return false
}

// scanFilterChain walks a Scan/Filter/Project chain top-down, returning the
// base scan and the filter predicates expressed directly in the scan's
// output layout. Predicates sitting above a Project address the projected
// layout, not the scan's, so passing a Project drops everything collected so
// far (a Filter below it can still prune). Any other node ends the walk
// without a scan.
func scanFilterChain(n plan.Node, preds []plan.Pred) (*plan.Scan, []plan.Pred) {
	switch node := n.(type) {
	case *plan.Scan:
		return node, preds
	case *plan.Filter:
		return scanFilterChain(node.Input, append(preds, node.Pred))
	case *plan.Project:
		return scanFilterChain(node.Input, nil)
	}
	return nil, nil
}
