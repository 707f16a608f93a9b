package hostdb

import (
	"errors"
	"strings"
	"testing"

	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// TestProfileNoteOnHostPaths pins the EXPLAIN ANALYZE satellite: when
// profiling is requested but the query never reaches RAPID, the result says
// why instead of silently carrying a nil profile.
func TestProfileNoteOnHostPaths(t *testing.T) {
	db := newTestDB(t, 500)
	loadAll(t, db)

	res, err := db.Query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceHost})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatal("host execution must not carry a DPU profile")
	}
	if !strings.Contains(res.ProfileNote, "no DPU profile") || !strings.Contains(res.ProfileNote, "host") {
		t.Fatalf("ProfileNote = %q", res.ProfileNote)
	}

	// RAPID failure fallback notes the failure.
	db.rapidFault = errors.New("hostdb: injected RAPID node failure")
	res, err = db.Query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86})
	db.rapidFault = nil
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil || !strings.Contains(res.ProfileNote, "RAPID execution failed") {
		t.Fatalf("failure fallback: profile=%v note=%q", res.Profile != nil, res.ProfileNote)
	}

	// Inadmissible fallback notes the pending journal.
	if _, err := db.Insert("events", [][]storage.Value{{
		storage.IntValue(9000), storage.IntValue(1), storage.DecString("1.00"), storage.StrValue("red"),
	}}); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil || !strings.Contains(res.ProfileNote, "admissible") {
		t.Fatalf("inadmissible fallback: profile=%v note=%q", res.Profile != nil, res.ProfileNote)
	}

	// A successful offload has a profile and no note.
	if err := db.Checkpoint("events"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || res.ProfileNote != "" {
		t.Fatalf("offload: profile=%v note=%q", res.Profile != nil, res.ProfileNote)
	}
}

// TestQueryEnergyAndTelemetryCounters verifies that every DPU offload feeds
// the energy model and the engine-wide counters, profiled or not.
func TestQueryEnergyAndTelemetryCounters(t *testing.T) {
	db := newTestDB(t, 2000)
	loadAll(t, db)
	res, err := db.Query(`SELECT grp, SUM(amount) FROM events GROUP BY grp`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Offloaded || !res.HasEnergy {
		t.Fatalf("offloaded=%v hasEnergy=%v", res.Offloaded, res.HasEnergy)
	}
	if res.Energy.TotalJoules() <= 0 || res.Energy.CoreFJ <= 0 || res.Energy.DMSReadFJ <= 0 {
		t.Fatalf("energy breakdown not populated: %+v", res.Energy)
	}
	// Activity + idle stays below the provisioned bound for the interval.
	m := power.DefaultEnergyModel()
	if bound := m.ProvisionedJoules(res.RapidSimSeconds); res.Energy.TotalJoules() > bound {
		t.Fatalf("total %g J exceeds provisioned %g J", res.Energy.TotalJoules(), bound)
	}
	vals := db.Metrics().Values()
	for _, name := range []string{
		"rapid_dpcore_cycles_total",
		"rapid_dms_read_bytes_total",
		"rapid_dms_descriptors_total",
		"rapid_sim_microseconds_total",
		"rapid_activity_energy_nanojoules_total",
		"rapid_idle_energy_nanojoules_total",
		"qef_work_units_total",
	} {
		if vals[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, vals[name])
		}
	}
	if h := db.Metrics().Histogram("hostdb_query_seconds"); h.View().Count == 0 {
		t.Error("hostdb_query_seconds histogram saw no observations")
	}

	// An x86-mode offload must not claim DPU energy.
	before := db.Metrics().Values()["rapid_dpcore_cycles_total"]
	resX, err := db.Query(`SELECT COUNT(*) FROM events`,
		QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if resX.HasEnergy {
		t.Error("x86 execution must not report activity energy")
	}
	if after := db.Metrics().Values()["rapid_dpcore_cycles_total"]; after != before {
		t.Errorf("x86 run moved DPU cycle counter %d -> %d", before, after)
	}
}
