package cpupart

import (
	"runtime"
	"testing"

	"fpgapart/workload"
)

// BenchmarkBuffered times the partitioner on the six class shapes of the
// repository benchmark's cpu_partition workload, and Code 1 beside Code 2 at
// the paper's operating point (the last two rows; Section 3 has Code 2
// ahead), so the layer's number and that ordering can be read with
//
//	go test ./internal/cpupart -run '^$' -bench Buffered -benchtime 10x
//
// without the harness. ns/tuple is the figure to compare; the in-cache row
// runs on 2^16 tuples, the others on 2^22. Each class works in one Scratch
// across its iterations and recycles every result into it, as a serving
// slot's partition.NewCPU partitioner does, so neither the per-worker
// histograms and buffer lines nor the output are allocated per call.
func BenchmarkBuffered(b *testing.B) {
	gen := workload.NewGenerator(42)
	relation := func(rel *workload.Relation, err error) *workload.Relation {
		if err != nil {
			b.Fatal(err)
		}
		return rel
	}
	const n = 1 << 22
	uniform := relation(gen.Relation(workload.Random, 8, n))
	zipf := relation(gen.ZipfRelation(1.0, n, 8, n))
	small := relation(gen.Relation(workload.Random, 8, 1<<16))
	for _, c := range []struct {
		name string
		rel  *workload.Relation
		cfg  Config
	}{
		{"hash_t1", uniform, Config{NumPartitions: 8192, Hash: true, Threads: 1}},
		{"radix_t1", uniform, Config{NumPartitions: 8192, Threads: 1}},
		{"hash_t2", uniform, Config{NumPartitions: 8192, Hash: true, Threads: 2}},
		{"hash_t2_fan256", uniform, Config{NumPartitions: 256, Hash: true, Threads: 2}},
		{"hash_t2_zipf", zipf, Config{NumPartitions: 8192, Hash: true, Threads: 2}},
		{"hash_t1_incache", small, Config{NumPartitions: 256, Hash: true, Threads: 1}},
		{"naive_radix_t1", uniform, Config{NumPartitions: 8192, Threads: 1, Algorithm: Naive}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sc Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Like the harness: collect the previous call's 32 MB first, so
				// a concurrent GC cycle is not timed with some calls.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				res, err := sc.Partition(c.rel, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				sc.Recycle(&res)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.rel.NumTuples), "ns/tuple")
		})
	}
}
