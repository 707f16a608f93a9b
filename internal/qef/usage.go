package qef

import (
	"time"

	"rapid/internal/dms"
	"rapid/internal/obs"
)

// Usage is everything a Context has billed, read out as one value. It is the
// only place a context's counters are read: results, profiles, telemetry and
// fragment deltas are all derived from it, so they cannot disagree about what
// a query cost.
type Usage struct {
	CoreCycles  []int64   // dpCore cycle counters
	CoreSeconds []float64 // simulated busy seconds per core: Σ max(compute, transfer) per unit
	// Read and Write are the DMS engine's own ledger by direction (bytes,
	// seconds, descriptors); BusRead and BusWrite are the DDR lane occupancy
	// billed by work units. Profile.CheckInvariants reconciles the two.
	Read, Write       dms.Timing
	BusRead, BusWrite float64
	DMEMHighWater     int // bytes; a mark, not a counter
	TilesPruned       int64
}

// Usage reads the context's counters out, reducing the per-core ledgers in
// core order: for the same plan over the same snapshot it is the same value,
// bit for bit, on every run. It is read between batches — by the goroutine
// that issues RunParallel and RunSerial, as every caller does — never while
// work units run: the ledgers are not locked.
func (c *Context) Usage() Usage {
	n := len(c.cores)
	u := Usage{CoreCycles: make([]int64, n), CoreSeconds: make([]float64, n), TilesPruned: c.tilesPruned.Load()}
	u.Read, u.Write = c.DMS.TotalsByDir()
	for i := range c.cores {
		b := &c.cores[i]
		rd, wr := b.dms.TotalsByDir()
		u.Read.Add(rd)
		u.Write.Add(wr)
		u.CoreCycles[i] = int64(c.SoC.Core(i).Cycles())
		u.CoreSeconds[i] = b.sim
		u.BusRead += b.busRead
		u.BusWrite += b.busWrite
		u.DMEMHighWater = max(u.DMEMHighWater, b.dmemHigh)
	}
	return u
}

// Sub returns what the same context billed between prev and u: every counter
// is a difference; DMEMHighWater, a mark, keeps u's reading.
func (u Usage) Sub(prev Usage) Usage {
	d := u
	d.CoreCycles = make([]int64, len(u.CoreCycles))
	d.CoreSeconds = make([]float64, len(u.CoreSeconds))
	for i := range d.CoreCycles {
		d.CoreCycles[i] = u.CoreCycles[i] - prev.CoreCycles[i]
		d.CoreSeconds[i] = u.CoreSeconds[i] - prev.CoreSeconds[i]
	}
	d.Read, d.Write = subTiming(u.Read, prev.Read), subTiming(u.Write, prev.Write)
	d.BusRead -= prev.BusRead
	d.BusWrite -= prev.BusWrite
	d.TilesPruned -= prev.TilesPruned
	return d
}

func subTiming(t, prev dms.Timing) dms.Timing {
	t.Seconds -= prev.Seconds
	t.Bytes -= prev.Bytes
	t.Descriptors -= prev.Descriptors
	return t
}

// Cycles returns the total dpCore cycles over all cores.
func (u Usage) Cycles() int64 {
	var t int64
	for _, cy := range u.CoreCycles {
		t += cy
	}
	return t
}

// Descriptors returns the DMS descriptors executed, both directions.
func (u Usage) Descriptors() int64 { return int64(u.Read.Descriptors + u.Write.Descriptors) }

// SimElapsed returns the simulated elapsed time of the usage. Cores run in
// parallel (makespan = busiest core), but all cores share the DDR interface:
// the elapsed time is also bounded below by the bus occupancy per direction.
// Taken over a Sub delta it is the delta's own makespan.
func (u Usage) SimElapsed() float64 {
	m := u.BusRead
	if u.BusWrite > m {
		m = u.BusWrite
	}
	for _, t := range u.CoreSeconds {
		if t > m {
			m = t
		}
	}
	return m
}

// Totals freezes the usage into the whole-query totals a profile is
// finalized with.
func (u Usage) Totals(wall, queueWait time.Duration) obs.Totals {
	return obs.Totals{
		WallSeconds:      wall.Seconds(),
		QueueWaitSeconds: queueWait.Seconds(),
		SimSeconds:       u.SimElapsed(),
		BusReadSeconds:   u.BusRead,
		BusWriteSeconds:  u.BusWrite,
		CoreCycles:       u.CoreCycles,
		DMSReadBytes:     u.Read.Bytes,
		DMSWriteBytes:    u.Write.Bytes,
		DMSReadSeconds:   u.Read.Seconds,
		DMSWriteSeconds:  u.Write.Seconds,
		DMSDescriptors:   u.Descriptors(),
	}
}
