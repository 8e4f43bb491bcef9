package joincore_test

import (
	"fmt"
	"testing"

	"fpgapart/internal/joincore"
	"fpgapart/partition"
	"fpgapart/workload"
)

// BenchmarkBuildProbe times build + probe alone, on partitions as the two
// backends write them, at the shapes of the repository benchmark's join
// workload (2 × 2^19 tuples of workload A; fan-out 8192 is cpu_radix and
// hybrid_pad_rid, fan-out 256 the budgeted classes' partitioning), so the
// layer's number can be read with
//
//	go test ./internal/joincore -run '^$' -bench BuildProbe -benchtime 20x
//
// without the harness. ns/probe-tuple is the figure to compare.
func BenchmarkBuildProbe(b *testing.B) {
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		b.Fatal(err)
	}
	in, err := spec.Scaled(float64(1<<19) / float64(spec.TuplesR)).Generate(42)
	if err != nil {
		b.Fatal(err)
	}
	for _, fan := range []int{256, 8192} {
		cpu, err := partition.NewCPU(partition.CPUOptions{Partitions: fan, Hash: true, Threads: 2})
		if err != nil {
			b.Fatal(err)
		}
		fpga, err := partition.NewFPGA(partition.FPGAOptions{Partitions: fan, Hash: true, Format: partition.PadMode, PadFraction: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			p    partition.Partitioner
		}{
			{"cpu_written", cpu},
			{"fpga_written", fpga},
		} {
			pr, err := c.p.Partition(in.R)
			if err != nil {
				b.Fatal(err)
			}
			ps, err := c.p.Partition(in.S)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s_fan%d", c.name, fan), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := joincore.BuildProbe(pr, ps, 2)
					if err != nil || res.Matches != int64(in.S.NumTuples) {
						b.Fatal(res, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.S.NumTuples), "ns/probe-tuple")
			})
		}
	}
}
