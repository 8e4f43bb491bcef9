package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fpgapart/platform"
	"fpgapart/workload"
)

// TestPropertyPartitionIsPermutation: for arbitrary inputs, modes and
// fan-outs, partition-then-reassemble is the identity on the (key, payload)
// multiset. This is the end-to-end soundness property of the whole circuit.
func TestPropertyPartitionIsPermutation(t *testing.T) {
	cfgIdx := 0
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%4000 + 1
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint32, n)
		for i := range keys {
			// Full 31-bit range; avoids only the dummy sentinel.
			keys[i] = rng.Uint32() & 0x7fffffff
		}
		rel, err := workload.FromKeys(keys, 8)
		if err != nil {
			return false
		}
		// Rotate through mode combinations deterministically.
		modes := []struct {
			f Format
			l Layout
		}{{HIST, RID}, {PAD, RID}, {HIST, VRID}, {PAD, VRID}}
		m := modes[cfgIdx%len(modes)]
		parts := []int{4, 32, 256}[cfgIdx%3]
		hash := cfgIdx%2 == 0
		cfgIdx++
		in := rel
		if m.l == VRID {
			in = rel.ToColumns()
		}
		cfg := Config{NumPartitions: parts, TupleWidth: 8, Hash: hash, Format: m.f,
			Layout: m.l, PadFraction: 4} // generous pad: tiny n is very skewed per-partition
		c, err := NewCircuit(cfg, 200e6, testCurve())
		if err != nil {
			return false
		}
		out, stats, err := c.Partition(in)
		if err != nil {
			return false
		}
		if stats.TuplesIn != int64(n) || out.TotalTuples() != int64(n) {
			return false
		}
		// Reassemble and compare as sorted multisets of key<<32|payload.
		var got []uint64
		for p := 0; p < parts; p++ {
			out.Partition(p, func(k, pay uint32, _ []uint64) {
				if m.l == VRID {
					// payload is the VRID; map back to the original payload.
					pay = rel.Payload(int(pay))
				}
				got = append(got, uint64(k)<<32|uint64(pay))
			})
		}
		want := make([]uint64, n)
		for i, k := range keys {
			want[i] = uint64(k)<<32 | uint64(rel.Payload(i))
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCountsMatchHistogram: output counts always equal the reference
// histogram, and base addresses are strictly ordered and non-overlapping.
func TestPropertyCountsMatchHistogram(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5000) + 1
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = rng.Uint32() & 0x7fffffff
		}
		rel, _ := workload.FromKeys(keys, 8)
		cfg := Config{NumPartitions: 64, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}
		c, err := NewCircuit(cfg, 200e6, testCurve())
		if err != nil {
			return false
		}
		out, _, err := c.Partition(rel)
		if err != nil {
			return false
		}
		ref := referencePartitions(rel, 64, true)
		end := int64(0)
		for p := 0; p < 64; p++ {
			if out.Counts[p] != int64(len(ref[p])) {
				return false
			}
			if out.Base[p] < end {
				return false // overlapping regions
			}
			end = out.Base[p] + out.LinesUsed[p]
		}
		return end*8 <= int64(len(out.Lines))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoHazardStallsEver: for any input pattern, the forwarding
// design never takes a hazard stall — the paper's "no internal stalls or
// locks ... regardless of input type".
func TestPropertyNoHazardStallsEver(t *testing.T) {
	f := func(seed int64, skewed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000) + 100
		keys := make([]uint32, n)
		for i := range keys {
			if skewed {
				keys[i] = uint32(rng.Intn(3)) // pathological: 3 partitions
			} else {
				keys[i] = rng.Uint32() & 0x7fffffff
			}
		}
		rel, _ := workload.FromKeys(keys, 8)
		cfg := Config{NumPartitions: 32, TupleWidth: 8, Hash: false, Format: HIST, Layout: RID}
		c, err := NewCircuit(cfg, 200e6, testCurve())
		if err != nil {
			return false
		}
		_, stats, err := c.Partition(rel)
		return err == nil && stats.StallsHazard == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPartitionIndexStableAcrossModes: the same key always lands in
// the same partition regardless of format/layout, so partitioned joins can
// pair R and S partitions produced by different modes.
func TestPropertyPartitionIndexStableAcrossModes(t *testing.T) {
	keys := make([]uint32, 2000)
	rng := rand.New(rand.NewSource(77))
	for i := range keys {
		keys[i] = rng.Uint32() & 0x7fffffff
	}
	rel, _ := workload.FromKeys(keys, 8)
	col := rel.ToColumns()
	locate := func(out *Output) map[uint32]int {
		m := make(map[uint32]int)
		for p := 0; p < out.NumPartitions; p++ {
			out.Partition(p, func(k, _ uint32, _ []uint64) { m[k] = p })
		}
		return m
	}
	var maps []map[uint32]int
	for _, mc := range []struct {
		f Format
		l Layout
	}{{HIST, RID}, {PAD, RID}, {HIST, VRID}, {PAD, VRID}} {
		in := rel
		if mc.l == VRID {
			in = col
		}
		cfg := Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: mc.f, Layout: mc.l, PadFraction: 1}
		c, err := NewCircuit(cfg, 200e6, testCurve())
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.Partition(in)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, locate(out))
	}
	for k, p := range maps[0] {
		for i := 1; i < len(maps); i++ {
			if maps[i][k] != p {
				t.Fatalf("key %#x in partition %d under mode 0 but %d under mode %d", k, p, maps[i][k], i)
			}
		}
	}
}

// TestCoherenceOwnership: the output buffer must be FPGA-owned after a run —
// the state that triggers Table 1's snoop penalty for the CPU consumer.
func TestCoherenceOwnership(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 5000, 31)
	cfg := Config{NumPartitions: 32, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}
	c, err := NewCircuit(cfg, 200e6, platform.XeonFPGA().FPGAAlone)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || stats.LinesWritten == 0 {
		t.Fatal("no output written")
	}
	// Every committed line is FPGA-written: what Result.FPGAWritten reports
	// and platform.Coherence prices (Table 1).
}
