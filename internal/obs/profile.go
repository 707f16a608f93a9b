// Package obs is the engine observability layer: per-query profiles with
// per-operator attribution of dpCore cycles, DMS transfers and row flow
// (the decomposition behind the paper's §7 per-kernel evaluation), plus an
// engine-wide metrics registry of counters and gauges.
//
// A Profile is created per query execution from the compiler's operator
// span definitions. During execution the QEF attributes accounting deltas
// to the currently-active span; after execution the whole-query totals are
// frozen in, and CheckInvariants verifies that the decomposition exactly
// reconciles with them — per core for cycles, per direction for DMS bytes.
package obs

import (
	"fmt"
	"math"
	"slices"
)

// SpanKind is a coarse operator category, used by the Chrome-trace export
// for event categories (filterable in Perfetto) and by telemetry rollups.
type SpanKind string

const (
	// KindSource covers operators whose cost is dominated by DMS traffic
	// (table scans, stream re-reads).
	KindSource SpanKind = "source"
	// KindPipeline covers per-tile streaming operators (filter, project,
	// pipelined aggregation endpoints).
	KindPipeline SpanKind = "pipeline"
	// KindBlocking covers materializing operators (joins, sorts,
	// partitioned group-by, set operations).
	KindBlocking SpanKind = "blocking"
)

// SpanDef is one operator span declared at plan time: a stable operator ID,
// its parent in the data-flow tree (-1 for the root) and display metadata.
type SpanDef struct {
	ID     int      `json:"id"`
	Parent int      `json:"parent"`
	Name   string   `json:"name"`
	Detail string   `json:"detail,omitempty"`
	Kind   SpanKind `json:"kind,omitempty"`
	// Conserves marks a row-conservation contract: this operator's rows-in
	// must equal the summed rows-out of its children in the span tree.
	Conserves bool `json:"conserves,omitempty"`
}

// spanCounters is everything one operator measures. An OpSpan holds one per
// core; their sum (fold) is the row every renderer — Summary, Format, Energy
// and both trace layouts — reads.
type spanCounters struct {
	cycles, wallNs        int64
	readBytes, writeBytes int64
	readSec, writeSec     float64
	rowsIn, rowsOut       int64
	tilesIn, tilesOut     int64

	// Zone-map scan accounting, in storage-chunk granularity (the accessor
	// may sub-tile a chunk under DMEM degradation, so chunks — not accessor
	// tiles — are the stable unit). chunksTotal/chunksPruned are written by
	// the orchestrator (slot 0); chunksScanned is ticked per work unit on its
	// core. Invariant: pruned + scanned == total per span.
	chunksTotal, chunksPruned, chunksScanned int64
}

// OpSpan accumulates one operator's measurements. Storage is per core so
// concurrent work units never contend: core w writes only slot w, and the
// orchestrator (which runs strictly between parallel phases) uses slot 0.
// All methods are nil-receiver safe so call sites need no profiling checks.
type OpSpan struct{ perCore []spanCounters }

// fold sums the span over its cores, in core order.
func (s *OpSpan) fold() spanCounters {
	var t spanCounters
	for i := range s.perCore {
		c := &s.perCore[i]
		t.cycles += c.cycles
		t.wallNs += c.wallNs
		t.readBytes += c.readBytes
		t.writeBytes += c.writeBytes
		t.readSec += c.readSec
		t.writeSec += c.writeSec
		t.rowsIn += c.rowsIn
		t.rowsOut += c.rowsOut
		t.tilesIn += c.tilesIn
		t.tilesOut += c.tilesOut
		t.chunksTotal += c.chunksTotal
		t.chunksPruned += c.chunksPruned
		t.chunksScanned += c.chunksScanned
	}
	return t
}

// AddCycles attributes a dpCore cycle delta measured on the given core.
func (s *OpSpan) AddCycles(core int, cy int64) {
	if s == nil {
		return
	}
	s.perCore[core].cycles += cy
}

// AddWallNs attributes native wall time (ModeX86) measured on a worker.
func (s *OpSpan) AddWallNs(core int, ns int64) {
	if s == nil {
		return
	}
	s.perCore[core].wallNs += ns
}

// AddTransfer attributes one DMS operation.
func (s *OpSpan) AddTransfer(core int, write bool, bytes int64, sec float64) {
	if s == nil {
		return
	}
	c := &s.perCore[core]
	if write {
		c.writeBytes += bytes
		c.writeSec += sec
	} else {
		c.readBytes += bytes
		c.readSec += sec
	}
}

// TickIn counts one tile of rows entering the operator.
func (s *OpSpan) TickIn(core int, rows int64) {
	if s == nil {
		return
	}
	s.perCore[core].rowsIn += rows
	s.perCore[core].tilesIn++
}

// TickOut counts one tile of rows leaving the operator.
func (s *OpSpan) TickOut(core int, rows int64) {
	if s == nil {
		return
	}
	s.perCore[core].rowsOut += rows
	s.perCore[core].tilesOut++
}

// AddTilesTotal records the scan's total chunk (zone-map tile) count,
// orchestrator-side before fan-out.
func (s *OpSpan) AddTilesTotal(n int64) {
	if s == nil {
		return
	}
	s.perCore[0].chunksTotal += n
}

// AddTilesPruned records chunks skipped by zone-map pruning,
// orchestrator-side before fan-out.
func (s *OpSpan) AddTilesPruned(n int64) {
	if s == nil {
		return
	}
	s.perCore[0].chunksPruned += n
}

// TickTileScanned counts one chunk actually scanned, on its core.
func (s *OpSpan) TickTileScanned(core int) {
	if s == nil {
		return
	}
	s.perCore[core].chunksScanned++
}

// AddRowsIn counts materialized input rows (orchestrator-side, no tile).
func (s *OpSpan) AddRowsIn(rows int64) {
	if s == nil {
		return
	}
	s.perCore[0].rowsIn += rows
}

// AddRowsOut counts materialized output rows (orchestrator-side, no tile).
func (s *OpSpan) AddRowsOut(rows int64) {
	if s == nil {
		return
	}
	s.perCore[0].rowsOut += rows
}

func sum64(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// Totals are the whole-query counters frozen into a profile after
// execution; CheckInvariants reconciles the spans against them.
type Totals struct {
	WallSeconds float64
	// QueueWaitSeconds is time the query spent in the scheduler's admission
	// queue before execution began (zero when unscheduled or admitted
	// immediately).
	QueueWaitSeconds float64
	SimSeconds       float64
	BusReadSeconds   float64
	BusWriteSeconds  float64
	CoreCycles       []int64 // per-core counter deltas for the query
	DMSReadBytes     int64
	DMSWriteBytes    int64
	DMSReadSeconds   float64
	DMSWriteSeconds  float64
	DMSDescriptors   int64 // both directions
}

// Profile is the per-query observability record: the span tree plus the
// whole-query totals.
type Profile struct {
	Mode  string
	Cores int
	// FreqHz is the dpCore clock the cycle counters were measured at; it
	// converts span cycles to time for the trace export. Zero (ModeX86)
	// means wall time carries the timing instead.
	FreqHz float64
	Defs   []SpanDef

	spans []*OpSpan

	// adapted records a runtime plan adaptation (e.g. the §5.4 group-by
	// overflow fallback): parts of the plan re-executed, so row-conservation
	// edges are no longer exact. Cycle and byte conservation still hold.
	adapted bool

	// ownDefs records that Defs is this profile's copy (SetDetail): the
	// definitions it was made from belong to the compiled plan.
	ownDefs bool

	finalized bool
	totals    Totals

	// cacheNote is the query cache interaction ("miss", "stale", ...) for
	// the EXPLAIN ANALYZE `cache:` line; hits never carry a profile (no
	// execution happened), so hit notes ride on QueryResult.ProfileNote.
	cacheNote string
}

// SetCacheNote records the result-cache interaction for Format's `cache:`
// line. Safe to call after Finalize (display-only state).
func (p *Profile) SetCacheNote(status string) { p.cacheNote = status }

// SetDetail replaces operator id's display detail for this execution, for an
// operator configured at execute time (a join filter states its size, or
// that it stayed off). The orchestrator calls it between parallel phases.
func (p *Profile) SetDetail(id int, detail string) {
	if p == nil || id < 0 || id >= len(p.Defs) {
		return
	}
	if !p.ownDefs {
		p.Defs, p.ownDefs = slices.Clone(p.Defs), true
	}
	p.Defs[id].Detail = detail
}

// NewProfile allocates a profile with one span per definition. Span slot
// storage is preallocated here — the per-tile execution path only does
// arithmetic on it.
func NewProfile(mode string, cores int, freqHz float64, defs []SpanDef) *Profile {
	p := &Profile{Mode: mode, Cores: cores, FreqHz: freqHz, Defs: defs}
	p.spans = make([]*OpSpan, len(defs))
	for i := range p.spans {
		p.spans[i] = &OpSpan{perCore: make([]spanCounters, cores)}
	}
	return p
}

// Span returns the span for an operator ID; nil for out-of-range IDs or a
// nil profile, so callers can thread "profiling off" without checks.
func (p *Profile) Span(id int) *OpSpan {
	if p == nil || id < 0 || id >= len(p.spans) {
		return nil
	}
	return p.spans[id]
}

// MarkAdapted records a runtime plan adaptation (relaxes row invariants).
func (p *Profile) MarkAdapted() {
	if p != nil {
		p.adapted = true
	}
}

// Finalize freezes the whole-query totals into the profile.
func (p *Profile) Finalize(t Totals) {
	if p == nil {
		return
	}
	p.totals = t
	p.finalized = true
}

// Totals returns the frozen whole-query totals.
func (p *Profile) Totals() Totals { return p.totals }

// TotalCycles returns the whole-query cycle total (sum over cores).
func (p *Profile) TotalCycles() int64 { return sum64(p.totals.CoreCycles) }

// tiles returns the query-wide chunk counts over all spans: scannable,
// zone-pruned, scanned.
func (p *Profile) tiles() (total, pruned, scanned int64) {
	if p == nil {
		return
	}
	for _, s := range p.spans {
		c := s.fold()
		total += c.chunksTotal
		pruned += c.chunksPruned
		scanned += c.chunksScanned
	}
	return
}

// TilesTotal returns the query-wide scannable chunk count over all spans.
func (p *Profile) TilesTotal() int64 {
	total, _, _ := p.tiles()
	return total
}

// TilesPruned returns the query-wide zone-pruned chunk count over all spans.
func (p *Profile) TilesPruned() int64 {
	_, pruned, _ := p.tiles()
	return pruned
}

// CheckInvariants verifies that the per-operator decomposition exactly
// reconciles with the whole-query totals:
//
//  1. per core, operator cycle spans sum to that core's cycle delta;
//  2. per direction, span DMS bytes sum to the engine's transfer totals
//     (and span seconds to the bus occupancy, within float tolerance);
//  3. the simulated elapsed time is at least the bus occupancy of the
//     busier direction;
//  4. along every conserving data-flow edge, parent rows-in equals the
//     summed rows-out of its children (skipped after a runtime plan
//     adaptation, which re-executes part of the stream);
//  5. per scan span, zone-pruned plus scanned chunks equal the scan's total
//     chunks — no tile silently disappears and no tile is double-counted
//     (also skipped after a plan adaptation, which aborts a scan mid-stream
//     before re-executing it).
func (p *Profile) CheckInvariants() error {
	if p == nil {
		return nil
	}
	if !p.finalized {
		return fmt.Errorf("obs: profile not finalized")
	}
	// 1. Per-core cycle conservation (exact integer equality).
	for core := 0; core < p.Cores; core++ {
		var spanSum int64
		for _, s := range p.spans {
			spanSum += s.perCore[core].cycles
		}
		var want int64
		if core < len(p.totals.CoreCycles) {
			want = p.totals.CoreCycles[core]
		}
		if spanSum != want {
			return fmt.Errorf("obs: core %d cycle spans sum to %d, core counter delta is %d", core, spanSum, want)
		}
	}
	// 2. Per-direction DMS byte conservation (exact integer equality).
	folds := make([]spanCounters, len(p.spans))
	var rdB, wrB int64
	var rdS, wrS float64
	for i, s := range p.spans {
		c := s.fold()
		folds[i] = c
		rdB += c.readBytes
		wrB += c.writeBytes
		rdS += c.readSec
		wrS += c.writeSec
	}
	if rdB != p.totals.DMSReadBytes {
		return fmt.Errorf("obs: span DMS read bytes sum to %d, engine total is %d", rdB, p.totals.DMSReadBytes)
	}
	if wrB != p.totals.DMSWriteBytes {
		return fmt.Errorf("obs: span DMS write bytes sum to %d, engine total is %d", wrB, p.totals.DMSWriteBytes)
	}
	// Seconds are float sums in different orders; allow relative drift.
	if !closeEnough(rdS, p.totals.DMSReadSeconds) {
		return fmt.Errorf("obs: span DMS read seconds sum to %g, engine total is %g", rdS, p.totals.DMSReadSeconds)
	}
	if !closeEnough(wrS, p.totals.DMSWriteSeconds) {
		return fmt.Errorf("obs: span DMS write seconds sum to %g, engine total is %g", wrS, p.totals.DMSWriteSeconds)
	}
	// 3. Elapsed-time lower bound: the serialized DDR bus.
	maxBus := p.totals.BusReadSeconds
	if p.totals.BusWriteSeconds > maxBus {
		maxBus = p.totals.BusWriteSeconds
	}
	if p.totals.SimSeconds < maxBus*(1-1e-9) {
		return fmt.Errorf("obs: SimElapsed %g below bus occupancy %g", p.totals.SimSeconds, maxBus)
	}
	// 4. Row conservation along declared edges.
	if !p.adapted {
		for _, d := range p.Defs {
			if !d.Conserves {
				continue
			}
			var childOut int64
			children := 0
			for _, c := range p.Defs {
				if c.Parent == d.ID {
					childOut += folds[c.ID].rowsOut
					children++
				}
			}
			if children == 0 {
				continue
			}
			if in := folds[d.ID].rowsIn; in != childOut {
				return fmt.Errorf("obs: operator %d (%s) rows-in %d != children rows-out %d", d.ID, d.Name, in, childOut)
			}
		}
	}
	// 5. Zone-map pruning accounting: pruned + scanned == total per span.
	if !p.adapted {
		for i, c := range folds {
			if c.chunksPruned+c.chunksScanned != c.chunksTotal {
				name := ""
				if i < len(p.Defs) {
					name = p.Defs[i].Name
				}
				return fmt.Errorf("obs: operator %d (%s) pruned %d + scanned %d != total tiles %d",
					i, name, c.chunksPruned, c.chunksScanned, c.chunksTotal)
			}
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale+1e-15
}

// isDPU reports whether the profile carries the DPU cycle/transfer model
// (the only mode the activity-energy model applies to).
func (p *Profile) isDPU() bool { return p != nil && p.Mode == "dpu" }

// SpanSummary is the JSON-friendly rendering of one operator span.
type SpanSummary struct {
	ID           int      `json:"id"`
	Parent       int      `json:"parent"`
	Name         string   `json:"name"`
	Detail       string   `json:"detail,omitempty"`
	Kind         SpanKind `json:"kind,omitempty"`
	EnergyUJ     float64  `json:"energy_uj,omitempty"`
	Cycles       int64    `json:"cycles"`
	WallMs       float64  `json:"wall_ms"`
	ReadBytes    int64    `json:"dms_read_bytes"`
	WriteBytes   int64    `json:"dms_write_bytes"`
	ReadSeconds  float64  `json:"dms_read_seconds"`
	WriteSeconds float64  `json:"dms_write_seconds"`
	RowsIn       int64    `json:"rows_in"`
	RowsOut      int64    `json:"rows_out"`
	TilesIn      int64    `json:"tiles_in"`
	TilesOut     int64    `json:"tiles_out"`
	TilesTotal   int64    `json:"tiles_total,omitempty"`
	TilesPruned  int64    `json:"tiles_pruned,omitempty"`
	TilesScanned int64    `json:"tiles_scanned,omitempty"`
}

// EnergySummary is the JSON rendering of a query's activity energy.
type EnergySummary struct {
	CoreJoules     float64 `json:"core_joules"`
	DMSReadJoules  float64 `json:"dms_read_joules"`
	DMSWriteJoules float64 `json:"dms_write_joules"`
	IdleJoules     float64 `json:"idle_joules"`
	TotalJoules    float64 `json:"total_joules"`
	// ProvisionedJoules is the §7.4 provisioned-power energy of the same
	// interval — the bound TotalJoules stays within.
	ProvisionedJoules float64 `json:"provisioned_joules"`
	JoulesPerRow      float64 `json:"joules_per_row,omitempty"`
}

// Summary is the JSON-friendly rendering of a whole profile.
type Summary struct {
	Mode             string         `json:"mode"`
	Adapted          bool           `json:"adapted,omitempty"`
	WallSeconds      float64        `json:"wall_seconds"`
	QueueWaitSeconds float64        `json:"queue_wait_seconds,omitempty"`
	SimSeconds       float64        `json:"sim_seconds"`
	BusReadSeconds   float64        `json:"bus_read_seconds"`
	BusWriteSeconds  float64        `json:"bus_write_seconds"`
	TotalCycles      int64          `json:"total_cycles"`
	DMSReadBytes     int64          `json:"dms_read_bytes"`
	DMSWriteBytes    int64          `json:"dms_write_bytes"`
	TilesTotal       int64          `json:"tiles_total,omitempty"`
	TilesPruned      int64          `json:"tiles_pruned,omitempty"`
	TilesScanned     int64          `json:"tiles_scanned,omitempty"`
	Energy           *EnergySummary `json:"energy,omitempty"`
	Ops              []SpanSummary  `json:"ops"`
}

// Summary renders the profile for JSON export. DPU profiles include the
// activity-energy decomposition under the default energy model.
func (p *Profile) Summary() Summary {
	if p == nil {
		return Summary{}
	}
	out := Summary{
		Mode:             p.Mode,
		Adapted:          p.adapted,
		WallSeconds:      p.totals.WallSeconds,
		QueueWaitSeconds: p.totals.QueueWaitSeconds,
		SimSeconds:       p.totals.SimSeconds,
		BusReadSeconds:   p.totals.BusReadSeconds,
		BusWriteSeconds:  p.totals.BusWriteSeconds,
		TotalCycles:      p.TotalCycles(),
		DMSReadBytes:     p.totals.DMSReadBytes,
		DMSWriteBytes:    p.totals.DMSWriteBytes,
	}
	out.TilesTotal, out.TilesPruned, out.TilesScanned = p.tiles()
	var rep EnergyReport
	if p.isDPU() {
		rep = p.Energy(defaultEnergyModel())
		out.Energy = &EnergySummary{
			CoreJoules:        fjJoules(rep.Query.CoreFJ),
			DMSReadJoules:     fjJoules(rep.Query.DMSReadFJ),
			DMSWriteJoules:    fjJoules(rep.Query.DMSWriteFJ),
			IdleJoules:        rep.Query.IdleJ,
			TotalJoules:       rep.Query.TotalJoules(),
			ProvisionedJoules: rep.ProvisionedJ,
			JoulesPerRow:      rep.JoulesPerRow(),
		}
	}
	for i, d := range p.Defs {
		c := p.spans[i].fold()
		ss := SpanSummary{
			ID: d.ID, Parent: d.Parent, Name: d.Name, Detail: d.Detail, Kind: d.Kind,
			Cycles: c.cycles, WallMs: float64(c.wallNs) / 1e6,
			ReadBytes: c.readBytes, WriteBytes: c.writeBytes,
			ReadSeconds: c.readSec, WriteSeconds: c.writeSec,
			RowsIn: c.rowsIn, RowsOut: c.rowsOut,
			TilesIn: c.tilesIn, TilesOut: c.tilesOut,
			TilesTotal: c.chunksTotal, TilesPruned: c.chunksPruned, TilesScanned: c.chunksScanned,
		}
		if out.Energy != nil {
			ss.EnergyUJ = fjJoules(rep.Spans[i].ActivityFJ()) * 1e6
		}
		out.Ops = append(out.Ops, ss)
	}
	return out
}
