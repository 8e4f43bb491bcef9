package partserver

import (
	"runtime"
	"testing"

	"fpgapart/workload"
)

// runCost returns the heap objects and bytes one Run over jobs allocates
// (minimum of three runs: the runtime adds objects of its own at some heap
// sizes).
func runCost(t *testing.T, jobs []Job, cfg Config) (objects, bytes uint64) {
	t.Helper()
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Run(jobs, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if done := rep.PlacedFPGA + rep.PlacedCPU; done != len(jobs) {
			t.Fatalf("%d of %d jobs done", done, len(jobs))
		}
		if n := after.Mallocs - before.Mallocs; run == 0 || n < objects {
			objects = n
		}
		if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < bytes {
			bytes = n
		}
	}
	return objects, bytes
}

// TestRunAllocationsPerJob guards what one more job costs Run on a trace of
// tiny relations (64–128 tuples), where the overhead of scheduler, worker
// and executor dominates the per-tuple work, as in the benchmark's serve
// workloads: heap objects on the default pool, and bytes on an FPGA-only and
// a CPU-only pool, where every job is placed alike. It is measured over the
// second half of a 400-job trace, so that what a Run sets up once (pools,
// each slot's one partitioner, and with it the circuit's datapath) does not
// count. The limits are what is reached plus a few percent: 1.04 objects for
// a partition job and 2.10 for a join job (the partition.Result of each
// partition call); an FPGA-placed partition job 1.08 kB and a join job
// 1.54 kB, a CPU-placed one 1.08 kB and 1.37 kB. The scheduler's queues
// change in place, each slot reuses one batch and one joiner, jobStates and
// counts are carved from chunks, and every job releases its results to the
// slot's partitioner, which a new configuration reconfigures in place and
// which keeps its run state, its bank and BRAM slab, its Output and the rows
// it converts a key column into: what is left per job is what it reports,
// and the output lines, the circuit's bookkeeping, the CPU's output and the
// join's tables and decision log are the previous jobs'. They were 1.27 and
// 2.29 objects, 5.20 and 4.90 kB on the FPGA, 1.39 and 1.62 kB on the CPU
// while a slot kept a partitioner per configuration, each with its own bank
// and outputs (limits 1.35 and 2.4 objects, 5 400 and 5 100 B, 1 450 and
// 1 700 B); 1.41
// and 8.76 objects, 5.35 and 5.96 kB on the FPGA, 1.39 and 2.53 kB on the
// CPU while every join built its executor, stats, result, tables and budget
// and every circuit run its Output (limits 1.5 and 9.1 objects, 5 550 and
// 6 200 B, 1 450 and 2 650 B); 10.75 and 18.75 objects, 6.2 and 7.8 kB on
// the FPGA, 1.6 and 2.6 kB on the CPU while every dispatch built its batch
// and its queues' copies and every call its run state (14.86 and 28.58
// objects, 29.0 and 56.8 kB on the FPGA, 2.8 and 5.2 kB on the CPU while
// every call allocated its output, and 17.89 and 36.23 objects, 122.1 kB
// for an FPGA partition job, while every circuit run rebuilt its datapath
// and every CPU call its buffers).
func TestRunAllocationsPerJob(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		joins                        bool
		objects, fpgaBytes, cpuBytes float64
	}{
		{"partition jobs", false, 1.1, 1150, 1150},
		{"join jobs", true, 2.2, 1600, 1450},
	} {
		jobs, err := GenerateTrace(7, 400, TraceOptions{MinTuples: 64, MaxTuples: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			jobs[i].Probe = nil
		}
		if tc.joins {
			joinEvery(t, jobs, 1)
		}
		perJob := func(cfg Config) (objects, bytes float64) {
			o1, b1 := runCost(t, jobs, cfg)
			o0, b0 := runCost(t, jobs[:200], cfg)
			return float64(o1-o0) / 200, float64(b1-b0) / 200
		}
		objects, _ := perJob(Config{})
		_, fpgaBytes := perJob(Config{FPGAs: 2})
		_, cpuBytes := perJob(Config{Workers: 2})
		t.Logf("%s: %.2f heap objects per job; %.0f bytes on an FPGA-only pool, %.0f on a CPU-only one", tc.name, objects, fpgaBytes, cpuBytes)
		if objects > tc.objects {
			t.Errorf("%s: %.2f heap objects per job, want at most %.2f", tc.name, objects, tc.objects)
		}
		if fpgaBytes > tc.fpgaBytes {
			t.Errorf("%s, FPGA-only pool: %.0f bytes per job, want at most %.0f", tc.name, fpgaBytes, tc.fpgaBytes)
		}
		if cpuBytes > tc.cpuBytes {
			t.Errorf("%s, CPU-only pool: %.0f bytes per job, want at most %.0f", tc.name, cpuBytes, tc.cpuBytes)
		}
	}
}

// BenchmarkTinyJob is the host cost of a job that is almost all overhead:
// 160 tuples (the serve workloads' mean) at fan-out 16, as a partition job
// and as a join job with a 320-tuple probe side, on an FPGA-only and on a
// CPU-only pool. One op is one job of a single Run over b.N of them, all of
// one configuration, so that what the Run sets up once amortises away.
//
//	go test ./partserver -run '^$' -bench TinyJob
func BenchmarkTinyJob(b *testing.B) {
	gen := workload.NewGenerator(7)
	rel, err := gen.Relation(workload.Random, 8, 160)
	if err != nil {
		b.Fatal(err)
	}
	probe, err := workload.NewRelation(workload.RowLayout, 8, 320)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < probe.NumTuples; i++ {
		probe.SetTuple(i, rel.Key(i%rel.NumTuples), uint32(i))
	}
	for _, kind := range []struct {
		name  string
		probe *workload.Relation
	}{{"partition", nil}, {"join", probe}} {
		for _, pool := range []struct {
			name string
			cfg  Config
		}{{"fpga", Config{FPGAs: 2}}, {"cpu", Config{Workers: 2}}} {
			b.Run(kind.name+"/"+pool.name, func(b *testing.B) {
				jobs := make([]Job, b.N)
				for i := range jobs {
					jobs[i] = Job{FanOut: 16, Hash: true, Rel: rel, Probe: kind.probe, ArrivalUS: 8 * int64(i)}
				}
				b.ReportAllocs()
				b.ResetTimer()
				rep, err := Run(jobs, pool.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if done := rep.PlacedFPGA + rep.PlacedCPU; done != b.N {
					b.Fatalf("%d of %d jobs done", done, b.N)
				}
			})
		}
	}
}

// TestGenerateTraceAllocations guards what a job costs GenerateTrace on a
// 1 000-job trace of tiny relations (16–64 tuples): its relations and
// nothing else. The trace reseeds one key generator; a generator per job
// (a 4.9 KB math/rand source, three objects) made it 6.4 kB and 7.04
// objects a job against 0.93 kB and 4.04. The limits are those plus a few
// percent.
func TestGenerateTraceAllocations(t *testing.T) {
	const jobs = 1000
	opts := TraceOptions{MinTuples: 16, MaxTuples: 64}
	var objects, bytes uint64
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := GenerateTrace(7, jobs, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; run == 0 || n < objects {
			objects = n
		}
		if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < bytes {
			bytes = n
		}
	}
	if perJob := float64(objects) / jobs; perJob > 4.1 {
		t.Errorf("%.2f heap objects per job, want at most 4.1", perJob)
	}
	if perJob := float64(bytes) / jobs; perJob > 1000 {
		t.Errorf("%.0f bytes per job, want at most 1000", perJob)
	}
}
