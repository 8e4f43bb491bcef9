package joincore

import (
	"encoding/binary"
	"testing"

	"fpgapart/internal/hashutil"
	"fpgapart/internal/membudget"
)

// fuzzPartitions decodes data into packed tuples (8 bytes each, keys masked
// into a small alphabet so that they match and repeat) and lays them out as
// hash partitions of strided slots cut into pieces runs: the words of a slot
// after the first hold the same key under another payload, which no loop may read as a
// tuple, and a set bit i%64 of dummyMask puts a dummy slot before tuple i.
// It returns the tuples beside the partitions, for the oracle.
func fuzzPartitions(data []byte, stride, pieces int, dummyMask uint64) (*slicePartitions, []uint64) {
	const fanOut = 4
	sp := &slicePartitions{parts: make([][]uint64, fanOut), stride: stride, pieces: pieces, dummies: true}
	slot := func(p uint32, t uint64) {
		sp.parts[p] = append(sp.parts[p], t)
		for w := 1; w < stride; w++ {
			sp.parts[p] = append(sp.parts[p], t+1<<32)
		}
	}
	var tuples []uint64
	for i := 0; (i+1)*8 <= len(data); i++ {
		t := binary.LittleEndian.Uint64(data[i*8:]) &^ 0xFFFFFFE0 // 32 keys
		p := hashutil.PartitionIndex32(uint32(t), hashutil.Log2(fanOut), true)
		if dummyMask>>(i%64)&1 != 0 {
			slot(p, pack(testDummyKey, uint32(i)))
		}
		slot(p, t)
		tuples = append(tuples, t)
	}
	return sp, tuples
}

// FuzzRunsAgainstNestedLoop lays two small relations out as runs of any
// stride, cut and dummy-slot pattern and joins them under any budget — none,
// less than a tuple, a few tuples. The join returns an error or the matches
// and checksum of a nested loop over the tuples; it never panics and never
// hangs (the fuzzer's deadline is the watchdog).
func FuzzRunsAgainstNestedLoop(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), []byte("fedcba9876543210fedcba9876543210"), uint8(0), uint8(1), uint64(0), uint16(0))
	f.Add(make([]byte, 400), make([]byte, 240), uint8(3), uint8(5), uint64(0xAAAA_AAAA_AAAA_AAAA), uint16(1))
	f.Add([]byte("aaaaaaaabbbbbbbbaaaaaaaacccccccc"), []byte("aaaaaaaa"), uint8(1), uint8(2), ^uint64(0), uint16(BuildTupleBytes))
	f.Add([]byte{}, []byte("no build side at all"), uint8(2), uint8(0), uint64(1), uint16(48))
	f.Fuzz(func(t *testing.T, rData, sData []byte, strideBits, pieces uint8, dummyMask uint64, budget uint16) {
		if len(rData) > 1<<11 || len(sData) > 1<<11 {
			t.Skip("bound the per-input work")
		}
		stride := 1 << (strideBits % 4)
		r, rTuples := fuzzPartitions(rData, stride, int(pieces%8), dummyMask)
		s, sTuples := fuzzPartitions(sData, stride, int(pieces%8), dummyMask>>7|dummyMask<<57)
		var wantM int64
		var wantC uint64
		for _, rt := range rTuples {
			for _, st := range sTuples {
				if uint32(rt) == uint32(st) {
					wantM++
					wantC += rt>>32 + st>>32
				}
			}
		}
		if m, c := NestedLoop(r, s); m != wantM || c != wantC {
			t.Fatalf("NestedLoop over the runs = %d/%#x, over the tuples %d/%#x", m, c, wantM, wantC)
		}
		res, stats, err := BudgetedBuildProbe(r, s, BudgetConfig{
			Budget: membudget.New(int64(budget)), Spill: &membudget.SpillStore{}, Threads: 1 + int(pieces)%2,
		})
		if err != nil {
			return
		}
		if res.Matches != wantM || res.Checksum != wantC {
			t.Fatalf("stride %d, %d pieces, budget %d: %d/%#x, want %d/%#x (%+v)",
				stride, pieces%8, budget, res.Matches, res.Checksum, wantM, wantC, stats)
		}
		if stats.MaxDepth > DefaultMaxDepth+1 {
			t.Fatalf("recursion depth %d exceeds the bound", stats.MaxDepth)
		}
	})
}
