package ops

import (
	"strings"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/qef"
)

// fakeCols returns a valid key column beside a column that was never given
// storage (the zero Data) — the stand-in for whatever a fuzzed plan smuggles
// into a partitioning pass.
func fakeCols() ([]coltypes.Data, []uint32) {
	cols := []coltypes.Data{coltypes.Of(seq(256, func(i int) int64 { return int64(i) })), {}}
	hv := make([]uint32, 256)
	for i := range hv {
		hv[i] = uint32(i)
	}
	return cols, hv
}

// TestSplitPartitionUnknownDataIsError pins the PR 8 fuzzer fix across the
// scatter rewrite: a column without storage reaching the round-0 /
// re-split path comes back as a query error, never a Scatter panic.
func TestSplitPartitionUnknownDataIsError(t *testing.T) {
	cols, hv := fakeCols()
	if _, err := splitPartition(nil, nil, [][]coltypes.Data{cols}, hv, []int{4}, 0); err == nil || !strings.Contains(err.Error(), "unsupported data") {
		t.Fatalf("err = %v, want an unsupported-data error", err)
	}
	for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
		_, err := PartitionByHash(qef.NewContext(mode), [][]coltypes.Data{cols}, []int{0}, PartScheme{Rounds: []int{4}}, 64)
		if err == nil || !strings.Contains(err.Error(), "unsupported data") {
			t.Fatalf("%v: err = %v, want an unsupported-data error", mode, err)
		}
	}
}

// TestSWPartitionUnknownDataIsError: the same for a scheme with software
// rounds, on both lanes: the one split that serves every round rejects it
// before any round replays.
func TestSWPartitionUnknownDataIsError(t *testing.T) {
	cols, _ := fakeCols()
	for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
		_, err := PartitionByHash(qef.NewContext(mode), [][]coltypes.Data{cols}, []int{0}, PartScheme{Rounds: []int{4, 8}}, 64)
		if err == nil || !strings.Contains(err.Error(), "unsupported data") {
			t.Fatalf("%v: err = %v, want an unsupported-data error", mode, err)
		}
	}
}
