package distjoin

import (
	"testing"

	"fpgapart/hashjoin"
	"fpgapart/partition"
	"fpgapart/workload"
)

func testInput(t *testing.T, nr, ns int) *workload.JoinInput {
	t.Helper()
	spec := workload.WorkloadSpec{ID: "t", TuplesR: nr, TuplesS: ns, Distribution: workload.Linear}
	in, err := spec.Generate(17)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDistributedJoinMatchesLocal(t *testing.T) {
	in := testInput(t, 1<<13, 1<<14)
	local, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: 256, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 8} {
		dist, err := Join(in.R, in.S, Options{
			Nodes: nodes, PartitionsPerNode: 256 / nodes, Threads: 2,
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if dist.Matches != local.Matches || dist.Checksum != local.Checksum {
			t.Fatalf("nodes=%d: %d/%d matches, local %d/%d",
				nodes, dist.Matches, dist.Checksum, local.Matches, local.Checksum)
		}
		// The most-loaded node joins at least its even share of both
		// relations, and all of them when it is alone.
		total := int64(in.R.NumTuples + in.S.NumTuples)
		if dist.JoinTuples*int64(nodes) < total || dist.JoinTuples > total || (nodes == 1 && dist.JoinTuples != total) {
			t.Errorf("nodes=%d: most-loaded node joins %d of %d tuples", nodes, dist.JoinTuples, total)
		}
	}
}

func TestDistributedJoinFPGAMatchesCPU(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13)
	cpu, err := Join(in.R, in.S, Options{Nodes: 4, PartitionsPerNode: 64, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := Join(in.R, in.S, Options{
		Nodes: 4, PartitionsPerNode: 64, Threads: 2,
		UseFPGA: true, Format: partition.HistMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Matches != fpga.Matches || cpu.Checksum != fpga.Checksum {
		t.Fatalf("CPU %d/%d vs FPGA %d/%d", cpu.Matches, cpu.Checksum, fpga.Matches, fpga.Checksum)
	}
}

// TestJoinKeepsEveryTuple sends relations whose keys collide with the
// circuit's dummy key, or are 0, through the distributed join on every
// backend: matches and checksum must be a tuple-by-tuple join's. A
// dummy-keyed tuple the circuit wrote reads back as padding, so a node whose
// shard holds one must partition it on the CPU.
func TestJoinKeepsEveryTuple(t *testing.T) {
	const n = 64
	backends := []struct {
		name string
		opts Options
	}{
		{"cpu", Options{}},
		{"fpga-hist", Options{UseFPGA: true, Format: partition.HistMode}},
		{"fpga-pad", Options{UseFPGA: true, Format: partition.PadMode}},
	}
	for _, tc := range []struct {
		name  string
		keyOf func(i int) uint32
	}{
		{"all-dummy", func(int) uint32 { return dummyKey }},
		{"some-dummy", func(i int) uint32 {
			if i%3 == 0 {
				return dummyKey
			}
			return uint32(i % 11)
		}},
		{"key-0", func(int) uint32 { return 0 }},
	} {
		var rels [2]*workload.Relation
		for side := range rels {
			rel, err := workload.NewRelation(workload.RowLayout, 8, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				rel.SetTuple(i, tc.keyOf(i), uint32(side*n+i))
			}
			rels[side] = rel
		}
		wantMatches, wantChecksum := referenceJoin(rels[0], rels[1], false)
		for _, b := range backends {
			opts := b.opts
			opts.Nodes, opts.PartitionsPerNode, opts.Threads = 2, 16, 1
			res, err := Join(rels[0], rels[1], opts)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, b.name, err)
			}
			if res.Matches != wantMatches || res.Checksum != wantChecksum {
				t.Errorf("%s, %s: %d matches (checksum %#x), brute force %d (%#x)",
					tc.name, b.name, res.Matches, res.Checksum, wantMatches, wantChecksum)
			}
		}
	}
}

func TestSingleNodeHasNoExchange(t *testing.T) {
	in := testInput(t, 1<<12, 1<<12)
	res, err := Join(in.R, in.S, Options{Nodes: 1, PartitionsPerNode: 128, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExchangeTime != 0 || res.BytesExchanged != 0 {
		t.Errorf("single node exchanged %d bytes in %v", res.BytesExchanged, res.ExchangeTime)
	}
	if res.Matches != int64(in.S.NumTuples) {
		t.Errorf("matches = %d", res.Matches)
	}
}

func TestExchangeVolumeScalesWithOffNodeFraction(t *testing.T) {
	in := testInput(t, 1<<14, 1<<14)
	two, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 64, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Join(in.R, in.S, Options{Nodes: 8, PartitionsPerNode: 16, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Off-node fraction grows from 1/2 to 7/8 of the data.
	if eight.BytesExchanged <= two.BytesExchanged {
		t.Errorf("8-node exchange (%d B) not larger than 2-node (%d B)",
			eight.BytesExchanged, two.BytesExchanged)
	}
	total := int64(in.R.NumTuples+in.S.NumTuples) * 8
	if two.BytesExchanged < total*4/10 || two.BytesExchanged > total*6/10 {
		t.Errorf("2-node off-node bytes = %d, want ≈ half of %d", two.BytesExchanged, total)
	}
}

func TestFPGACoherencePenaltySlowsJoinPhase(t *testing.T) {
	// Same workload, same local join work; the FPGA path's join time must
	// include the probe snoop penalty (deterministically applied).
	in := testInput(t, 1<<13, 1<<13)
	res, err := Join(in.R, in.S, Options{
		Nodes: 2, PartitionsPerNode: 64, Threads: 1,
		UseFPGA: true, Format: partition.HistMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionTime <= 0 || res.JoinTime <= 0 || res.ExchangeTime <= 0 {
		t.Errorf("phase times: %+v", res)
	}
	if res.Total != res.PartitionTime+res.ExchangeTime+res.JoinTime {
		t.Error("Total is not the sum of phases")
	}
}

func TestValidation(t *testing.T) {
	in := testInput(t, 64, 64)
	if _, err := Join(in.R, in.S, Options{Nodes: 3, PartitionsPerNode: 4}); err == nil {
		t.Error("non-power-of-two nodes accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 3}); err == nil {
		t.Error("non-power-of-two per-node fan-out accepted")
	}
}

func TestShardingCoversAllTuples(t *testing.T) {
	rel, err := workload.NewGenerator(3).Relation(workload.Random, 8, 1001)
	if err != nil {
		t.Fatal(err)
	}
	shards := shard(rel, 4)
	total := 0
	seen := map[uint64]int{}
	for _, s := range shards {
		total += s.NumTuples
		for i := 0; i < s.NumTuples; i++ {
			seen[uint64(s.Key(i))<<32|uint64(s.Payload(i))]++
		}
	}
	if total != 1001 {
		t.Fatalf("shards hold %d tuples", total)
	}
	for i := 0; i < rel.NumTuples; i++ {
		k := uint64(rel.Key(i))<<32 | uint64(rel.Payload(i))
		if seen[k] == 0 {
			t.Fatalf("tuple %d lost in sharding", i)
		}
		seen[k]--
	}
}
