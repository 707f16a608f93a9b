package main

import (
	"fmt"
	"time"

	"rapid"
	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/ops"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// setupReps complete set-ups are timed per run and their median reported:
// a single set-up swings 30–80 % with the box's phases and the heap's
// first-touch page faults.
const setupReps = 3

// engine is the system under test, set up for one workload.
type engine struct {
	kind engineKind
	host *hostdb.Database // the host database (under pub for enginePublic)
	tray *cluster.Tray    // engineTray only
	pub  *rapid.DB        // enginePublic only
}

// setupPhases splits one set-up by the layer that did the work.
type setupPhases struct {
	total, insert, load, cluster time.Duration
}

// setUp builds a query-ready system from generated rows: create tables,
// insert, LOAD every replica, and for the tray build the per-node shards.
// Generating the rows is the benchmark's own work and is not part of it.
func setUp(kind engineKind, data *tpch.Data) (*engine, setupPhases, error) {
	var ph setupPhases
	start := time.Now()
	e := &engine{kind: kind}
	schemas := tpch.Schemas()
	if kind == enginePublic {
		// Everything through the public API, as an application would: cache
		// on at defaults, the replica in the public Load's default chunking.
		e.pub = rapid.OpenWith(rapid.Config{})
		e.host = e.pub.Host()
		for _, name := range tpch.TableNames() {
			sc := schemas[name]
			cols := make([]rapid.Column, sc.NumCols())
			for i := range cols {
				cols[i] = sc.Col(i)
			}
			t0 := time.Now()
			if err := e.pub.CreateTable(name, cols...); err != nil {
				return nil, ph, err
			}
			if err := e.pub.Insert(name, data.Tables[name]); err != nil {
				return nil, ph, err
			}
			t1 := time.Now()
			if err := e.pub.Load(name); err != nil {
				return nil, ph, err
			}
			ph.insert += t1.Sub(t0)
			ph.load += time.Since(t1)
		}
		ph.total = time.Since(start)
		return e, ph, nil
	}
	e.host = hostdb.New()
	for _, name := range tpch.TableNames() {
		t0 := time.Now()
		if _, err := e.host.CreateTable(name, schemas[name]); err != nil {
			return nil, ph, err
		}
		if _, err := e.host.Insert(name, data.Tables[name]); err != nil {
			return nil, ph, err
		}
		t1 := time.Now()
		// 1024-row chunks, as tpch.PopulateHostDB loads them: a chunk is the
		// parallel work grain of the scan.
		if _, err := e.host.Load(name, hostdb.LoadOptions{ScanThreads: 4, ChunkRows: 1024}); err != nil {
			return nil, ph, err
		}
		ph.insert += t1.Sub(t0)
		ph.load += time.Since(t1)
	}
	if kind == engineTray {
		t0 := time.Now()
		tray, err := cluster.New(e.host, cluster.Config{Nodes: trayNodes})
		if err != nil {
			return nil, ph, err
		}
		e.tray = tray
		for _, name := range tpch.TableNames() {
			if err := tray.Load(name, nil); err != nil {
				return nil, ph, err
			}
		}
		ph.cluster = time.Since(t0)
	}
	ph.total = time.Since(start)
	return e, ph, nil
}

func (e *engine) close() {
	switch {
	case e.pub != nil:
		e.pub.Close()
	case e.tray != nil:
		e.tray.Close()
		e.host.Close()
	default:
		e.host.Close()
	}
}

// relView is the engine-neutral view of a result the oracle digests.
type relView struct {
	rows, cols int
	cell       func(row, col int) string
}

func viewOf(rel *ops.Relation) relView {
	return relView{rows: rel.Rows(), cols: rel.NumCols(), cell: rel.Render}
}

// timedResult is what the load generator keeps of one timed execution.
type timedResult struct {
	view      relView
	cache     string // result-cache interaction; "" when no cache is installed
	queueWait time.Duration
}

// query is the workload's public entry point: the call the load generator
// times.
func (e *engine) query(sql string) (timedResult, error) {
	switch e.kind {
	case enginePublic:
		r, err := e.pub.QueryWith(sql, rapid.Options{Engine: rapid.EngineRapidX86})
		if err != nil {
			return timedResult{}, err
		}
		if !r.Offloaded() || r.FellBack() {
			return timedResult{}, fmt.Errorf("query was not offloaded to RAPID")
		}
		return timedResult{
			view:      relView{rows: r.Rows(), cols: r.NumCols(), cell: r.Get},
			cache:     r.CacheStatus(),
			queueWait: r.QueueWait(),
		}, nil
	case engineTray:
		r, err := e.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86})
		if err != nil {
			return timedResult{}, err
		}
		return timedResult{view: viewOf(r.Rel), cache: r.Cache, queueWait: r.QueueWait}, nil
	default:
		r, err := e.host.Query(sql, socOptions(qef.ModeX86))
		if err != nil {
			return timedResult{}, err
		}
		return timedResult{view: viewOf(r.Rel), cache: r.Cache, queueWait: r.QueueWait}, nil
	}
}

// socOptions are the single-SoC options of every benchmark-issued offload:
// forced, never falling back silently, and bypassing the query cache so the
// statement really executes.
func socOptions(mode qef.Mode) hostdb.QueryOptions {
	return hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: mode, FailOnInadmissible: true, NoCache: true}
}

// oracle runs a statement on the System X row engine, the reference every
// RAPID result is compared against.
func (e *engine) oracle(sql string) (relView, error) {
	r, err := e.host.Query(sql, hostdb.QueryOptions{Mode: hostdb.ForceHost, NoCache: true})
	if err != nil {
		return relView{}, err
	}
	return viewOf(r.Rel), nil
}

// replicaBytes sums the stored bytes of every loaded RAPID replica.
func (e *engine) replicaBytes() (int64, error) {
	var n int64
	for _, name := range tpch.TableNames() {
		t, err := e.host.Table(name)
		if err != nil {
			return 0, err
		}
		n += int64(t.Rapid().StoredBytes())
	}
	return n, nil
}
