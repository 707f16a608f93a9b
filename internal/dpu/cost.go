package dpu

// Instruction-level cost model of the dpCore pipeline (paper §2.1).
//
// The dpCore is a dual-issue in-order machine: each cycle it can retire one
// ALU-class instruction and one load/store-class instruction. The database
// instructions BVLD (bit-vector gather load), FILT (predicate compare) and
// CRC32 (hash value generation) are single-cycle. The low-power multiplier
// stalls the pipeline for several cycles, and there is no native floating
// point (the reason for the DSB encoding of §4.2). The branch predictor
// statically predicts backward branches taken, so the closing branch of a
// tight primitive loop is effectively free and only data-dependent forward
// branches miss.
const (
	// IssueWidth is the number of instructions retired per cycle when an
	// ALU op pairs with a load/store op.
	IssueWidth = 2

	// MulStall is the pipeline stall of the low-power multiplier.
	MulStall Cycles = 4

	// BranchMissPenalty is the in-order pipeline refill cost of a
	// mispredicted branch.
	BranchMissPenalty Cycles = 6
)

// DualIssue returns the cycles needed to retire aluOps ALU-class and lsuOps
// load/store-class instructions under the dual-issue pipeline: perfectly
// paired streams retire at max(alu, lsu) cycles.
func DualIssue(aluOps, lsuOps int64) Cycles {
	if aluOps > lsuOps {
		return Cycles(aluOps)
	}
	return Cycles(lsuOps)
}

// SerialIssue returns the cycles for a run of dependent single-cycle
// instructions that cannot pair (each waits on the previous result).
func SerialIssue(ops int64) Cycles { return Cycles(ops) }

// MulCycles returns the cost of n multiplications including stalls.
func MulCycles(n int64) Cycles { return Cycles(n) * MulStall }
