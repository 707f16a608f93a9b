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
	// MulStall is the pipeline stall of the low-power multiplier.
	MulStall Cycles = 4

	// BranchMissPenalty is the in-order pipeline refill cost of a
	// mispredicted branch.
	BranchMissPenalty Cycles = 6
)
