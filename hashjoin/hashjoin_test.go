package hashjoin

import (
	"runtime"
	"testing"

	"fpgapart/partition"
	"fpgapart/workload"
)

func testInput(t *testing.T, nr, ns int, d workload.Distribution) *workload.JoinInput {
	t.Helper()
	spec := workload.WorkloadSpec{ID: "t", TuplesR: nr, TuplesS: ns, Distribution: d}
	in, err := spec.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCPUJoinLinearCountsExact(t *testing.T) {
	in := testInput(t, 1<<13, 1<<14, workload.Linear)
	res, err := CPU(in.R, in.S, Options{Partitions: 64, Hash: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Linear workloads are FK joins: every S tuple matches exactly once.
	if res.Matches != int64(in.S.NumTuples) {
		t.Fatalf("matches = %d, want %d", res.Matches, in.S.NumTuples)
	}
	if res.CoherencePenalized {
		t.Error("CPU join should not be penalized")
	}
	if res.Total <= 0 || res.PartitionTime() <= 0 || res.BuildProbeTime() <= 0 {
		t.Errorf("breakdown: %+v", res)
	}
}

func TestHybridMatchesCPUJoin(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13, workload.Random)
	cpu, err := CPU(in.R, in.S, Options{Partitions: 128, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Hybrid(in.R, in.S, Options{Partitions: 128, Hash: true, Threads: 2, Format: partition.HistMode})
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Matches != hybrid.Matches || cpu.Checksum != hybrid.Checksum {
		t.Fatalf("CPU %d/%d vs hybrid %d/%d", cpu.Matches, cpu.Checksum, hybrid.Matches, hybrid.Checksum)
	}
	if !hybrid.CoherencePenalized {
		t.Error("hybrid join must carry the coherence penalty")
	}
	if hybrid.PartitionerName != "fpga-HIST/RID" {
		t.Errorf("partitioner = %q", hybrid.PartitionerName)
	}
}

func TestNonPartitionedMatches(t *testing.T) {
	in := testInput(t, 1<<12, 1<<13, workload.Linear)
	np, err := NonPartitioned(in.R, in.S, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := CPU(in.R, in.S, Options{Partitions: 64, Hash: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if np.Matches != cpu.Matches || np.Checksum != cpu.Checksum {
		t.Fatalf("non-partitioned %d/%d vs partitioned %d/%d", np.Matches, np.Checksum, cpu.Matches, cpu.Checksum)
	}
}

func TestHybridPadOverflowFallsBack(t *testing.T) {
	// Skewed S overflows PAD mode; the join must still complete via the CPU
	// fallback and flag it.
	spec := workload.WorkloadSpec{ID: "t", TuplesR: 1 << 13, TuplesS: 1 << 13, Distribution: workload.Linear}
	in, err := spec.GenerateSkewed(5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Hybrid(in.R, in.S, Options{Partitions: 256, Hash: true, Threads: 2,
		Format: partition.PadMode, PadFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Error("expected PAD overflow fallback on Zipf(1.0) S")
	}
	if res.Matches != int64(in.S.NumTuples) {
		t.Errorf("matches = %d, want %d", res.Matches, in.S.NumTuples)
	}
}

func TestHybridHistHandlesSkew(t *testing.T) {
	spec := workload.WorkloadSpec{ID: "t", TuplesR: 1 << 12, TuplesS: 1 << 12, Distribution: workload.Linear}
	in, err := spec.GenerateSkewed(6, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Hybrid(in.R, in.S, Options{Partitions: 128, Hash: true, Threads: 2, Format: partition.HistMode})
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBack {
		t.Error("HIST mode should not fall back")
	}
	if res.Matches != int64(in.S.NumTuples) {
		t.Errorf("matches = %d, want %d", res.Matches, in.S.NumTuples)
	}
}

func TestHybridColumnStore(t *testing.T) {
	in := testInput(t, 1<<12, 1<<12, workload.Random)
	p, err := partition.NewFPGA(partition.FPGAOptions{
		Partitions: 64, Hash: true, Format: partition.PadMode, Layout: partition.ColumnStore, PadFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rCols, sCols := in.R.ToColumns(), in.S.ToColumns()
	res, err := Join(rCols, sCols, p, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := CPU(in.R, in.S, Options{Partitions: 64, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// VRID payloads are row indices, not the original payloads; since our
	// generators set payload = index, the checksums coincide as well.
	if res.Matches != cpu.Matches {
		t.Fatalf("VRID join %d matches, CPU join %d", res.Matches, cpu.Matches)
	}

	// Hybrid with Layout: ColumnStore is that join, partitioner included:
	// the one way the CLIs, the experiments and perfbench run VRID mode.
	opts := Options{Partitions: 64, Hash: true, Threads: 2,
		Format: partition.PadMode, Layout: partition.ColumnStore, PadFraction: 0.5}
	hyb, err := Hybrid(rCols, sCols, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Matches != res.Matches || hyb.Checksum != res.Checksum || hyb.PartitionerName != res.PartitionerName ||
		hyb.PartitionR != res.PartitionR || hyb.PartitionS != res.PartitionS {
		t.Fatalf("Hybrid on columns: %d/%#x via %s (%v, %v); Join with a VRID partitioner: %d/%#x via %s (%v, %v)",
			hyb.Matches, hyb.Checksum, hyb.PartitionerName, hyb.PartitionR, hyb.PartitionS,
			res.Matches, res.Checksum, res.PartitionerName, res.PartitionR, res.PartitionS)
	}
	if hyb.PartitionerName != "fpga-PAD/VRID" {
		t.Errorf("partitioner = %q", hyb.PartitionerName)
	}
	if _, err := Hybrid(in.R, in.S, opts); err == nil {
		t.Error("VRID mode accepted row-layout relations")
	}
}

func TestJoinRejectsBadOptions(t *testing.T) {
	in := testInput(t, 100, 100, workload.Linear)
	if _, err := CPU(in.R, in.S, Options{Partitions: 100}); err == nil {
		t.Error("non-power-of-two fan-out accepted")
	}
	if _, err := Hybrid(in.R, in.S, Options{Partitions: 0}); err == nil {
		t.Error("zero fan-out accepted")
	}
}

func TestRadixVsHashSameMatches(t *testing.T) {
	in := testInput(t, 1<<12, 1<<12, workload.Grid)
	radix, err := CPU(in.R, in.S, Options{Partitions: 64, Hash: false, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := CPU(in.R, in.S, Options{Partitions: 64, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if radix.Matches != hash.Matches || radix.Checksum != hash.Checksum {
		t.Fatalf("radix %d/%d vs hash %d/%d", radix.Matches, radix.Checksum, hash.Matches, hash.Checksum)
	}
}

func TestTotalIsSumOfPhases(t *testing.T) {
	in := testInput(t, 1<<12, 1<<12, workload.Linear)
	res, err := Hybrid(in.R, in.S, Options{Partitions: 64, Hash: true, Threads: 2, Format: partition.HistMode})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != res.PartitionR+res.PartitionS+res.Build+res.Probe {
		t.Errorf("Total %v ≠ sum of phases", res.Total)
	}
}

// TestJoinReleasesItsPartitions: Join hands both sides' partitions back to
// the partitioner, so a caller that loops over one long-lived partitioner
// partitions into the same buffers every time: after the first call, a join
// allocates less than half what its two outputs take — 8 B a tuple; 16.6 kB
// on the CPU and 66.5 kB on the circuit against 256 kB — and every call
// matches the first (the buffers it reuses held the previous call's tuples).
func TestJoinReleasesItsPartitions(t *testing.T) {
	in := testInput(t, 1<<14, 1<<14, workload.Random)
	for _, newP := range []func() (partition.Partitioner, error){
		func() (partition.Partitioner, error) {
			return partition.NewCPU(partition.CPUOptions{Partitions: 64, Hash: true, Threads: 1})
		},
		func() (partition.Partitioner, error) {
			return partition.NewFPGA(partition.FPGAOptions{Partitions: 64, Hash: true, Format: partition.HistMode})
		},
	} {
		p, err := newP()
		if err != nil {
			t.Fatal(err)
		}
		first, err := Join(in.R, in.S, p, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 3 && err == nil; i++ {
			res, err = Join(in.R, in.S, p, Options{Threads: 1})
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != first.Matches || res.Checksum != first.Checksum {
			t.Fatalf("%s: %d/%#x, first call %d/%#x", p.Name(), res.Matches, res.Checksum, first.Matches, first.Checksum)
		}
		outputs := uint64(8 * (in.R.NumTuples + in.S.NumTuples))
		if perJoin := (after.TotalAlloc - before.TotalAlloc) / 3; perJoin >= outputs/2 {
			t.Errorf("%s: a join allocates %d bytes, its outputs take %d", p.Name(), perJoin, outputs)
		}
	}
}
