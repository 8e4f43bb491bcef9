// Module-level benchmarks: one per table and figure of the paper's
// evaluation (run with `go test -bench . -benchmem`), plus ablation
// benchmarks for the design decisions called out in DESIGN.md. Each
// benchmark exercises the code path that regenerates its experiment at a
// fixed, laptop-friendly input size and reports throughput as Mtuples/s
// where that is the figure's y-axis.
package fpgapart_test

import (
	"fmt"
	"testing"

	"fpgapart/codec"
	"fpgapart/distjoin"
	"fpgapart/experiments"
	"fpgapart/hashjoin"
	"fpgapart/internal/core"
	"fpgapart/internal/cpupart"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/joincore"
	"fpgapart/internal/model"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// benchRelation memoizes generated relations across benchmarks.
var benchRels = map[string]*workload.Relation{}

func benchRelation(b *testing.B, d workload.Distribution, width, n int) *workload.Relation {
	b.Helper()
	key := fmt.Sprintf("%v/%d/%d", d, width, n)
	if r, ok := benchRels[key]; ok {
		return r
	}
	r, err := workload.NewGenerator(99).Relation(d, width, n)
	if err != nil {
		b.Fatal(err)
	}
	benchRels[key] = r
	return r
}

func reportTuples(b *testing.B, tuplesPerOp int) {
	b.Helper()
	b.ReportMetric(float64(tuplesPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtuples/s")
}

// BenchmarkTable1Coherence evaluates the coherence model behind Table 1:
// ownership tracking of a written region plus the four read-time queries.
func BenchmarkTable1Coherence(b *testing.B) {
	m := platform.XeonFPGA().Coherence
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, random := range []bool{false, true} {
			sink += m.ReadTime(512<<20, random, platform.CPUSocket)
			sink += m.ReadTime(512<<20, random, platform.FPGASocket)
		}
	}
	_ = sink
}

// BenchmarkFigure2Bandwidth measures the host memory-mix kernel behind the
// Figure 2 host column at the balanced ratio.
func BenchmarkFigure2Bandwidth(b *testing.B) {
	buf := make([]uint64, 1<<22) // 32 MB
	b.SetBytes(int64(len(buf) * 8))
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += experiments.MeasureMixBandwidth(buf, 0.5, 1)
	}
	_ = sink
}

// BenchmarkFigure3CDF builds the radix and hash partition histograms behind
// the Figure 3 CDFs.
func BenchmarkFigure3CDF(b *testing.B) {
	const n = 1 << 20
	rel := benchRelation(b, workload.Grid, 8, n)
	hist := make([]int64, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range hist {
			hist[j] = 0
		}
		for t := 0; t < n; t++ {
			hist[hashutil.PartitionIndex32(rel.Key(t), 13, i%2 == 0)]++
		}
	}
	reportTuples(b, n)
}

// BenchmarkFigure4CPUPartitioning measures the software partitioner of
// Figure 4 (8 B tuples, 8192 partitions, hash attribute).
func BenchmarkFigure4CPUPartitioning(b *testing.B) {
	const n = 1 << 21
	rel := benchRelation(b, workload.Random, 8, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpupart.Partition(rel, cpupart.Config{NumPartitions: 8192, Hash: true, Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
	reportTuples(b, n)
}

// BenchmarkTable2Resources estimates the resource table.
func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []int{8, 16, 32, 64} {
			core.EstimateResources(core.Config{NumPartitions: 8192, TupleWidth: w})
		}
	}
}

// BenchmarkFigure8TupleWidth simulates the circuit per tuple width
// (HIST/RID on the Xeon+FPGA link), the Figure 8 sweep.
func BenchmarkFigure8TupleWidth(b *testing.B) {
	for _, width := range []int{8, 16, 32, 64} {
		width := width
		b.Run(fmt.Sprintf("%dB", width), func(b *testing.B) {
			n := (16 << 20) / width
			rel := benchRelation(b, workload.Random, width, n)
			p := platform.XeonFPGA()
			b.SetBytes(int64(n * width))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := core.NewCircuit(core.Config{
					NumPartitions: 8192, TupleWidth: width, Hash: true, Format: core.HIST,
				}, p.FPGAClockHz, p.FPGAAlone)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.Partition(rel); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, n)
		})
	}
}

// BenchmarkFigure9Modes simulates each operating mode of Figure 9.
func BenchmarkFigure9Modes(b *testing.B) {
	const n = 1 << 21
	rel := benchRelation(b, workload.Random, 8, n)
	col := rel.ToColumns()
	modes := []struct {
		name   string
		format partition.Format
		layout partition.Layout
		plat   *platform.Platform
	}{
		{"HIST_RID", partition.HistMode, partition.RowStore, platform.XeonFPGA()},
		{"HIST_VRID", partition.HistMode, partition.ColumnStore, platform.XeonFPGA()},
		{"PAD_RID", partition.PadMode, partition.RowStore, platform.XeonFPGA()},
		{"PAD_VRID", partition.PadMode, partition.ColumnStore, platform.XeonFPGA()},
		{"RawFPGA_PAD", partition.PadMode, partition.RowStore, platform.RawFPGA()},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			in := rel
			if m.layout == partition.ColumnStore {
				in = col
			}
			p, err := partition.NewFPGA(partition.FPGAOptions{
				Partitions: 8192, Hash: true, Format: m.format, Layout: m.layout,
				PadFraction: 0.5, Platform: m.plat,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Partition(in); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, n)
		})
	}
}

// BenchmarkModelValidation evaluates the Section 4.8 cost-model table.
func BenchmarkModelValidation(b *testing.B) {
	p := platform.XeonFPGA()
	for i := 0; i < b.N; i++ {
		if rows := model.Validate(p); len(rows) != 3 {
			b.Fatal("bad validation table")
		}
	}
}

// BenchmarkFigure10Partitions runs the hybrid join across the Figure 10
// fan-out sweep.
func BenchmarkFigure10Partitions(b *testing.B) {
	in := benchJoinInput(b, workload.WorkloadA, 1.0/256)
	for _, parts := range []int{256, 2048, 8192} {
		parts := parts
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) { benchHybrid(b, in, parts, partition.PadMode) })
	}
}

// BenchmarkFigure11Threads runs the CPU join of Figure 11 per thread count.
func BenchmarkFigure11Threads(b *testing.B) {
	in := benchJoinInput(b, workload.WorkloadA, 1.0/256)
	for _, threads := range []int{1, 2, 4} {
		threads := threads
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: 8192, Hash: true, Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, in.R.NumTuples+in.S.NumTuples)
		})
	}
}

// BenchmarkFigure12Distributions runs the CPU hash join on workloads C/D/E.
func BenchmarkFigure12Distributions(b *testing.B) {
	for _, id := range []workload.WorkloadID{workload.WorkloadC, workload.WorkloadD, workload.WorkloadE} {
		id := id
		b.Run(string(id), func(b *testing.B) {
			in := benchJoinInput(b, id, 1.0/256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: 8192, Hash: true, Threads: 1}); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, in.R.NumTuples+in.S.NumTuples)
		})
	}
}

// BenchmarkFigure13Skew runs the hybrid HIST join on a Zipf(1.0)-skewed S.
func BenchmarkFigure13Skew(b *testing.B) {
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		b.Fatal(err)
	}
	in, err := spec.Scaled(1.0/256).GenerateSkewed(99, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	benchHybrid(b, in, 8192, partition.HistMode)
}

func benchJoinInput(b *testing.B, id workload.WorkloadID, scale float64) *workload.JoinInput {
	b.Helper()
	spec, err := workload.Spec(id)
	if err != nil {
		b.Fatal(err)
	}
	in, err := spec.Scaled(scale).Generate(99)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func benchHybrid(b *testing.B, in *workload.JoinInput, parts int, format partition.Format) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashjoin.Hybrid(in.R, in.S, hashjoin.Options{
			Partitions: parts, Hash: true, Threads: 1, Format: format, PadFraction: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
	}
	reportTuples(b, in.R.NumTuples+in.S.NumTuples)
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// BenchmarkAblationForwarding compares the write combiner with and without
// the Code 4 forwarding registers on an adversarial single-partition input.
func BenchmarkAblationForwarding(b *testing.B) {
	const n = 1 << 18
	rel, err := workload.NewRelation(workload.RowLayout, 8, n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rel.SetTuple(i, 1, uint32(i))
	}
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "forwarding"
		if disable {
			name = "stalling"
		}
		b.Run(name, func(b *testing.B) {
			p := platform.RawFPGA()
			var cycles int64
			for i := 0; i < b.N; i++ {
				c, err := core.NewCircuit(core.Config{
					NumPartitions: 64, TupleWidth: 8, Format: core.HIST,
					DisableForwarding: disable,
				}, p.FPGAClockHz, p.FPGAAlone)
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := c.Partition(rel)
				if err != nil {
					b.Fatal(err)
				}
				cycles = stats.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles/op")
			reportTuples(b, n)
		})
	}
}

// BenchmarkAblationWriteCombiner compares the combiner datapath against the
// naive per-tuple read-modify-write strawman of Section 4.2.
func BenchmarkAblationWriteCombiner(b *testing.B) {
	const n = 1 << 19
	rel := benchRelation(b, workload.Random, 8, n)
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "combining"
		if disable {
			name = "naiveRMW"
		}
		b.Run(name, func(b *testing.B) {
			p := platform.XeonFPGA()
			for i := 0; i < b.N; i++ {
				c, err := core.NewCircuit(core.Config{
					NumPartitions: 1024, TupleWidth: 8, Hash: true, Format: core.HIST,
					DisableWriteCombiner: disable,
				}, p.FPGAClockHz, p.FPGAAlone)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.Partition(rel); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, n)
		})
	}
}

// BenchmarkAblationBufferedVsNaive compares Code 2 against Code 1 on the
// CPU at the paper's 8192-partition fan-out.
func BenchmarkAblationBufferedVsNaive(b *testing.B) {
	const n = 1 << 21
	rel := benchRelation(b, workload.Random, 8, n)
	for _, alg := range []cpupart.Algorithm{cpupart.Buffered, cpupart.Naive, cpupart.MultiPass} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				if _, err := cpupart.Partition(rel, cpupart.Config{
					NumPartitions: 8192, Hash: false, Threads: 1, Algorithm: alg,
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, n)
		})
	}
}

// BenchmarkAblationExtendedEndpoint contrasts the paper's own page table
// (standard end-point) against Intel's extended end-point with 20% less
// bandwidth (Section 2.1).
func BenchmarkAblationExtendedEndpoint(b *testing.B) {
	const n = 1 << 20
	rel := benchRelation(b, workload.Random, 8, n)
	for _, ext := range []bool{false, true} {
		ext := ext
		name := "ownPageTable"
		if ext {
			name = "extendedEndpoint"
		}
		b.Run(name, func(b *testing.B) {
			p, err := partition.NewFPGA(partition.FPGAOptions{
				Partitions: 8192, Hash: true, Format: partition.PadMode,
				PadFraction: 0.5, ExtendedEndpoint: ext,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := p.Partition(rel); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, n)
		})
	}
}

// BenchmarkExtensionDistributedJoin measures the simulated rack-scale join
// (Section 6's RDMA outlook) across cluster sizes.
func BenchmarkExtensionDistributedJoin(b *testing.B) {
	in := benchJoinInput(b, workload.WorkloadA, 1.0/512)
	for _, nodes := range []int{2, 8} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := distjoin.Join(in.R, in.S, distjoin.Options{
					Nodes: nodes, PartitionsPerNode: 1024 / nodes, Threads: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, in.R.NumTuples+in.S.NumTuples)
		})
	}
}

// BenchmarkExtensionCompressed partitions an RLE-compressed key column
// (in-pipeline decompression) against the plain VRID path.
func BenchmarkExtensionCompressed(b *testing.B) {
	const n = 1 << 20
	keys := make([]uint32, n)
	rng := workload.NewGenerator(99)
	if err := rng.Keys(workload.Random, keys); err != nil {
		b.Fatal(err)
	}
	for i := range keys {
		keys[i] = keys[i/32*32] // runs of 32
	}
	col := codec.CompressRLE(keys)
	rel, err := workload.FromKeys(keys, 8)
	if err != nil {
		b.Fatal(err)
	}
	colRel := rel.ToColumns()
	// The wall clock measures simulation cost; the figure of interest is
	// the simulated circuit throughput, reported as sim-Mtuples/s.
	b.Run("plainVRID", func(b *testing.B) {
		p, err := partition.NewFPGA(partition.FPGAOptions{
			Partitions: 1024, Hash: true, Format: partition.HistMode, Layout: partition.ColumnStore,
		})
		if err != nil {
			b.Fatal(err)
		}
		var sim float64
		for i := 0; i < b.N; i++ {
			res, err := p.Partition(colRel)
			if err != nil {
				b.Fatal(err)
			}
			sim = float64(n) / res.Elapsed().Seconds() / 1e6
		}
		b.ReportMetric(sim, "sim-Mtuples/s")
	})
	b.Run("compressed", func(b *testing.B) {
		var sim float64
		for i := 0; i < b.N; i++ {
			res, err := partition.FPGACompressed(partition.FPGAOptions{
				Partitions: 1024, Hash: true, Format: partition.HistMode, Layout: partition.ColumnStore,
			}, col)
			if err != nil {
				b.Fatal(err)
			}
			sim = float64(n) / res.Elapsed().Seconds() / 1e6
		}
		b.ReportMetric(sim, "sim-Mtuples/s")
	})
}

// BenchmarkExtensionFuturePlatform simulates the circuit on the paper's
// outlook platform (CPU-class bandwidth, no snoop asymmetry).
func BenchmarkExtensionFuturePlatform(b *testing.B) {
	const n = 1 << 21
	rel := benchRelation(b, workload.Random, 8, n)
	p, err := partition.NewFPGA(partition.FPGAOptions{
		Partitions: 8192, Hash: true, Format: partition.PadMode,
		PadFraction: 0.5, Platform: platform.FutureIntegrated(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(rel); err != nil {
			b.Fatal(err)
		}
	}
	reportTuples(b, n)
}

// BenchmarkAblationNonPartitionedJoin contrasts the partitioned CPU join
// with the global-hash-table baseline.
func BenchmarkAblationNonPartitionedJoin(b *testing.B) {
	in := benchJoinInput(b, workload.WorkloadA, 1.0/256)
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: 8192, Hash: true, Threads: 1}); err != nil {
				b.Fatal(err)
			}
		}
		reportTuples(b, in.R.NumTuples+in.S.NumTuples)
	})
	b.Run("nonpartitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := joincore.NonPartitioned(in.R, in.S, 1); err != nil {
				b.Fatal(err)
			}
		}
		reportTuples(b, in.R.NumTuples+in.S.NumTuples)
	})
}
