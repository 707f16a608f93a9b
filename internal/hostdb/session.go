package hostdb

import (
	"context"
	"time"

	"rapid/internal/obs"
	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/sched"
)

// Session is one RAPID execution on a shared SoC (§3.1: the RAPID operator
// ships a fragment to a node and receives its result): a context admitted on
// the SoC's scheduler, running its work units on the scheduler's pool and
// leasing from its slab. The single SoC opens one per offload; a tray query
// one per node, then one for its coordinator (§7.4).
type Session struct {
	Ctx *qef.Context
	adm *sched.Admission
}

// OpenSession builds a context in mode and admits it on s, queueing while
// goCtx allows; the context observes goCtx. On an admission error (overload,
// cancellation, a closed scheduler) nothing is held.
func OpenSession(goCtx context.Context, s *sched.Scheduler, mode qef.Mode, reg *obs.Registry, noPrune bool) (*Session, error) {
	ctx := qef.NewContext(mode)
	ctx.Metrics = reg
	ctx.NoPrune = noPrune
	adm, err := s.Admit(goCtx, sched.Request{Cores: ctx.Workers()})
	if err != nil {
		return nil, err
	}
	ctx.SetGoContext(goCtx)
	ctx.Exec, ctx.Slab = adm, adm.Slab()
	return &Session{Ctx: ctx, adm: adm}, nil
}

// QueueWait is how long the session waited for its admission.
func (s *Session) QueueWait() time.Duration { return s.adm.QueueWait() }

// Close returns the context's leases, then the admission: the relations it
// produced must have been copied out (Flatten, or an exchange) before.
func (s *Session) Close() {
	s.Ctx.Release()
	s.adm.Release()
}

// Bill is what one RAPID execution cost, on one SoC or a whole tray. Both
// engines' results embed it through Answer; the journal record, the cache
// entry and a hit's saved cost are read from it.
type Bill struct {
	Cycles int64 // dpCore cycles over every context (0 in ModeX86)
	// SimSeconds is one SoC's makespan, or the tray's slowest node plus the
	// interconnect plus the coordinator merge.
	SimSeconds      float64
	X86ModelSeconds float64 // the same work on a dual-socket x86 (§7.4)
	// Energy includes the link (NetFJ), priced in every mode; activity and
	// idle are ModeDPU's only, which HasEnergy marks. EnergyNJ is activity +
	// idle in the nanojoules added to the rapid_*_energy counters.
	Energy        power.Breakdown
	HasEnergy     bool
	EnergyNJ      int64
	QueueWait     time.Duration // the longest admission wait
	DMEMHighWater int           // bytes, the largest mark of any dpCore
	TilesPruned   int64         // storage chunks zone maps skipped
	NetBytes      int64         // moved over the tray interconnect
	// Cache is "hit", "miss", "stale" (the entry's versions moved), "bypass"
	// (ineligible) or "" (no cache). Only a hit carries the Saved cost of the
	// execution that produced its result.
	Cache         string
	CyclesSaved   int64
	EnergySavedNJ int64
}

// Price bills one execution over the usages of its contexts: nodes SoCs for
// sim simulated seconds, with netBytes moved over the tray interconnect. The
// link is priced in every mode. dpCore activity, the uncore idle floor of
// all nodes and the rapid_* counters and histograms are a ModeDPU
// execution's only: this is the one place those series are fed, and their
// histograms observe the exact integers added to the counters, so sums
// reconcile (both stay below 2^53, where float64 addition is lossless).
func Price(reg *obs.Registry, mode qef.Mode, nodes int, sim float64, netBytes int64, usages ...qef.Usage) Bill {
	b := Bill{SimSeconds: sim, NetBytes: netBytes}
	var rd, wr, descriptors int64
	for _, u := range usages {
		b.Cycles += u.Cycles()
		rd += u.Read.Bytes
		wr += u.Write.Bytes
		descriptors += u.Descriptors()
		b.TilesPruned += u.TilesPruned
		b.DMEMHighWater = max(b.DMEMHighWater, u.DMEMHighWater)
	}
	b.X86ModelSeconds = power.X86ModelSeconds(float64(b.Cycles), rd+wr)
	b.Energy.NetFJ = power.LinkEnergyFJ(netBytes)
	if mode != qef.ModeDPU {
		return b
	}
	em := power.DefaultEnergyModel()
	b.Energy.CoreFJ, b.Energy.DMSReadFJ, b.Energy.DMSWriteFJ = em.ActivityFJ(b.Cycles, rd, wr)
	b.Energy.IdleJ = float64(nodes) * em.UncoreIdleWatts * sim
	b.HasEnergy = true
	actNJ, idleNJ := power.NanoJoules(b.Energy.ActivityFJ(), b.Energy.IdleJ)
	b.EnergyNJ = actNJ + idleNJ
	reg.Counter("rapid_dpcore_cycles_total").Add(b.Cycles)
	reg.Counter("rapid_dms_read_bytes_total").Add(rd)
	reg.Counter("rapid_dms_write_bytes_total").Add(wr)
	reg.Counter("rapid_dms_descriptors_total").Add(descriptors)
	reg.Counter("rapid_sim_microseconds_total").Add(int64(sim * 1e6))
	reg.Counter("rapid_activity_energy_nanojoules_total").Add(actNJ)
	reg.Counter("rapid_idle_energy_nanojoules_total").Add(idleNJ)
	reg.Histogram("rapid_query_cycles", obs.DefCycleBuckets...).Observe(float64(b.Cycles))
	reg.Histogram("rapid_query_energy_nanojoules", obs.DefEnergyNJBuckets...).Observe(float64(b.EnergyNJ))
	return b
}

// Saved is the bill of a result-cache hit on this execution's result:
// nothing spent, and this execution's cost reported as saved.
func (b *Bill) Saved() Bill {
	return Bill{Cache: "hit", CyclesSaved: b.Cycles, EnergySavedNJ: b.EnergyNJ}
}

// Stamp copies the bill's journal fields onto rec.
func (b *Bill) Stamp(rec *obs.QueryRecord) {
	rec.Cycles, rec.EnergyNJ, rec.QueueWaitNs = b.Cycles, b.EnergyNJ, int64(b.QueueWait)
	rec.DMEMHighNow, rec.NetBytes, rec.Cache = int64(b.DMEMHighWater), b.NetBytes, b.Cache
}
