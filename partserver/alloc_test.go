package partserver

import (
	"runtime"
	"testing"
)

// runMallocs returns the heap objects one Run over jobs allocates (minimum
// of three runs: the runtime adds objects of its own at some heap sizes).
func runMallocs(t *testing.T, jobs []Job) uint64 {
	t.Helper()
	var best uint64
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Run(jobs, Config{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if done := rep.PlacedFPGA + rep.PlacedCPU; done != len(jobs) {
			t.Fatalf("%d of %d jobs done", done, len(jobs))
		}
		if n := after.Mallocs - before.Mallocs; run == 0 || n < best {
			best = n
		}
	}
	return best
}

// TestRunAllocationsPerJob guards the per-job heap objects of Run on a trace
// of tiny relations, where the overhead of scheduler, worker and executor
// dominates the per-tuple work, as in the benchmark's serve workloads. Going
// through package partition and the one joincore executor may cost no more
// than the private copies they replaced: 24.83 objects for one more partition
// job and 52.07 for one more join job, measured over the second half of a
// 400-job trace so that what a Run sets up once (pools, the partitioner of
// each configuration a slot meets) does not count.
func TestRunAllocationsPerJob(t *testing.T) {
	for _, tc := range []struct {
		name         string
		joinFraction float64
		limit        float64
	}{
		{"partition jobs", 1e-9, 24.9},
		{"join jobs", 1, 52.1},
	} {
		jobs, err := GenerateTrace(7, 400, TraceOptions{MinTuples: 64, MaxTuples: 128, JoinFraction: tc.joinFraction})
		if err != nil {
			t.Fatal(err)
		}
		perJob := float64(runMallocs(t, jobs)-runMallocs(t, jobs[:200])) / 200
		if perJob > tc.limit {
			t.Errorf("%s: %.2f heap objects per job, want at most %.2f", tc.name, perJob, tc.limit)
		}
	}
}
