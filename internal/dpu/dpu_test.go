package dpu

import "testing"

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumCores != 32 || cfg.CoresPerMacro != 8 {
		t.Fatalf("cores/per macro = %d/%d", cfg.NumCores, cfg.CoresPerMacro)
	}
	if cfg.FreqHz != 800e6 {
		t.Fatalf("FreqHz = %v", cfg.FreqHz)
	}
	// 800M cycles == 1 second.
	if got := cfg.Seconds(800e6); got != 1.0 {
		t.Fatalf("Seconds(800M) = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumCores: 0, CoresPerMacro: 8, FreqHz: 1, DMEMBytes: 1},
		{NumCores: 30, CoresPerMacro: 8, FreqHz: 1, DMEMBytes: 1},
		{NumCores: 32, CoresPerMacro: 8, FreqHz: 0, DMEMBytes: 1},
		{NumCores: 32, CoresPerMacro: 8, FreqHz: 1, DMEMBytes: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Fatal("New should propagate validation error")
	}
}

func TestSoCTopology(t *testing.T) {
	s := MustNew(DefaultConfig())
	if len(s.Cores()) != 32 {
		t.Fatalf("len(Cores) = %d", len(s.Cores()))
	}
	for i, co := range s.Cores() {
		if co.ID() != i {
			t.Fatalf("core %d has ID %d", i, co.ID())
		}
		if co.DMEM().Free() != 32*1024 {
			t.Fatalf("core %d DMEM = %d", i, co.DMEM().Free())
		}
	}
}

func TestCycleAccounting(t *testing.T) {
	s := MustNew(DefaultConfig())
	s.Core(0).Charge(100)
	s.Core(1).Charge(250)
	s.Core(31).Charge(50)
	if s.TotalCycles() != 400 {
		t.Fatalf("TotalCycles = %d", s.TotalCycles())
	}
	s.Core(0).ChargeBranchMiss(3)
	if s.Core(0).Cycles() != 100+3*BranchMissPenalty {
		t.Fatalf("cycles after miss = %d", s.Core(0).Cycles())
	}
	if s.Core(0).BranchMisses() != 3 {
		t.Fatalf("BranchMisses = %d", s.Core(0).BranchMisses())
	}
	s.Reset()
	if s.TotalCycles() != 0 || s.Core(0).BranchMisses() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestChargePanicsOnNegative(t *testing.T) {
	s := MustNew(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Core(0).Charge(-1)
}

// The headline filter number of §7.2: 482 M tuples/s at 800 MHz is
// 1.65 cycles/tuple. Check the clock arithmetic that every figure relies on.
func TestFilterRateArithmetic(t *testing.T) {
	cfg := DefaultConfig()
	cyclesPerTuple := 1.65
	rate := cfg.FreqHz / cyclesPerTuple
	if rate < 480e6 || rate > 490e6 {
		t.Fatalf("1.65 cycles/tuple at 800MHz = %.0f tuples/s, want ~484M", rate)
	}
}
