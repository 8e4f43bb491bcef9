package hashjoin

import (
	"encoding/binary"
	"testing"

	"fpgapart/internal/joincore"
	"fpgapart/workload"
)

// fuzzRelation decodes a fuzz byte string into a row-layout relation of
// packed <key, payload> tuples, masking keys into a small alphabet so the
// join actually produces matches (and, often, heavy hitters).
func fuzzRelation(t *testing.T, data []byte, keyMask uint32) *workload.Relation {
	t.Helper()
	n := len(data) / 8
	if n == 0 {
		n = 1
	}
	rel, err := workload.NewRelation(workload.RowLayout, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var tu uint64
		if (i+1)*8 <= len(data) {
			tu = binary.LittleEndian.Uint64(data[i*8:])
		}
		rel.SetTuple(i, uint32(tu)&keyMask, uint32(tu>>32))
	}
	return rel
}

// FuzzJoinUnderBudget is differential fuzzing of the memory-adaptive join:
// for arbitrary relations and any budget from 10% to 100% of the build
// side, the budgeted join must reproduce the unconstrained Matches and
// Checksum byte-for-byte, with its recursion depth bounded.
func FuzzJoinUnderBudget(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 0, 0, 0, 0, 0, 0, 9}, uint8(10), uint8(2))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), []byte("fedcba9876543210"), uint8(55), uint8(4))
	f.Add(make([]byte, 256), make([]byte, 512), uint8(100), uint8(3))
	f.Fuzz(func(t *testing.T, rData, sData []byte, budgetPct, fanBits uint8) {
		if len(rData) > 1<<12 || len(sData) > 1<<12 {
			t.Skip("bound the per-input work")
		}
		// Key alphabets small enough that duplicate keys — the hard case
		// for a budgeted build — are common.
		r := fuzzRelation(t, rData, 0xFF)
		s := fuzzRelation(t, sData, 0xFF)
		opts := Options{
			Partitions: 1 << (2 + fanBits%5), // 4..64
			Threads:    1 + int(fanBits)%3,
			Hash:       true,
		}
		want, err := CPU(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Budget in [10%, 100%] of the unconstrained build footprint.
		buildBytes := int64(r.NumTuples) * joincore.BuildTupleBytes
		pct := 10 + int64(budgetPct)%91
		opts.MemoryBudgetBytes = buildBytes * pct / 100
		if opts.MemoryBudgetBytes < 1 {
			opts.MemoryBudgetBytes = 1
		}
		got, err := CPU(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matches != want.Matches || got.Checksum != want.Checksum {
			t.Fatalf("budget %d%% (%dB): got %d/%#x, want %d/%#x (memory %+v)",
				pct, opts.MemoryBudgetBytes, got.Matches, got.Checksum, want.Matches, want.Checksum, got.Memory)
		}
		if got.Memory == nil {
			t.Fatalf("budgeted join reported no memory stats")
		}
		if got.Memory.MaxDepth > joincore.MaxRecursionDepth+1 {
			t.Fatalf("recursion depth %d exceeds the bound", got.Memory.MaxDepth)
		}
		// The honest-budget bound: an in-memory build fits the cap and a
		// broadcast chunk holds at most cap bytes or one tuple; only the
		// 2 KiB scatter of a recursive pass may exceed a smaller cap.
		if high, bound := got.Memory.HighWaterBytes, max(opts.MemoryBudgetBytes, 2048); high > bound {
			t.Fatalf("high water %d B exceeds max(cap, 2 KiB) = %d B", high, bound)
		}
	})
}
