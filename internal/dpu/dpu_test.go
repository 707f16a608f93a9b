package dpu

import "testing"

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumCores != 32 || cfg.DMEMBytes != 32*1024 {
		t.Fatalf("cores/DMEM = %d/%d", cfg.NumCores, cfg.DMEMBytes)
	}
	// 800M cycles == 1 second.
	if got := Cycles(800e6).Seconds(); got != 1.0 {
		t.Fatalf("Seconds(800M) = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumCores: 0, DMEMBytes: 1},
		{NumCores: 32, DMEMBytes: 0},
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
	for i := 0; i < s.Config().NumCores; i++ {
		co := s.Core(i)
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
	cyclesPerTuple := 1.65
	rate := FreqHz / cyclesPerTuple
	if rate < 480e6 || rate > 490e6 {
		t.Fatalf("1.65 cycles/tuple at 800MHz = %.0f tuples/s, want ~484M", rate)
	}
}
