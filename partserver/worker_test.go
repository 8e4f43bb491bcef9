package partserver

import (
	"runtime"
	"strings"
	"testing"

	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// brokenPartitioner returns no result and no error, so whatever the slot does
// next with the result panics, past the partitioners' own guards.
type brokenPartitioner struct{}

func (brokenPartitioner) Partition(*workload.Relation) (*partition.Result, error) { return nil, nil }
func (brokenPartitioner) Name() string                                            { return "broken" }

// TestWorkerTurnsAPanicIntoAFailedJob: a job's work — all of it runs on the
// goroutine that dispatched it — panicking past the partitioners' guards
// fails that job and nothing else: runJob reports it, and a Scheduler whose
// first slot holds the broken partitioner fails the job (CPU slot: no further
// fallback) or degrades it to the CPU pool (FPGA slot), returns from Step, and
// completes the job behind it.
func TestWorkerTurnsAPanicIntoAFailedJob(t *testing.T) {
	// Join jobs this large are predicted to finish sooner on the FPGA than
	// on the CPU.
	jobs, err := GenerateTrace(3, 2, TraceOptions{MinTuples: 1 << 17, MaxTuples: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	joinEvery(t, jobs, 1)
	jobs[1].FanOut = 2 * jobs[0].FanOut // its own configuration, so the slot replaces the broken partitioner
	bad, good := &jobState{spec: jobs[0], key: keyOf(&jobs[0])}, &jobState{spec: jobs[1], key: keyOf(&jobs[1])}
	r := resource{kind: PlacedCPU, part: brokenPartitioner{}, partKey: bad.key}
	r.runJob(bad)
	r.runJob(good)
	if bad.out.ok || !strings.HasPrefix(bad.out.errMsg, "cpu worker: ") {
		t.Errorf("job on the broken partitioner: ok %v, error %q; want a failure reported by the slot", bad.out.ok, bad.out.errMsg)
	}
	if !good.out.ok || good.out.matches == 0 {
		t.Errorf("job after the panic: ok %v, error %q, %d matches", good.out.ok, good.out.errMsg, good.out.matches)
	}

	for _, tc := range []struct {
		name string
		cfg  Config // the first slot gets the broken partitioner
		want JobResult
	}{
		{"cpu-slot-fails", Config{Workers: 1}, JobResult{Status: StatusFailed, Placement: PlacedCPU, Attempts: 1}},
		{"fpga-slot-degrades", Config{FPGAs: 1, Workers: 1}, JobResult{Status: StatusDone, Placement: PlacedCPU, Attempts: 2, Degraded: true}},
	} {
		s, err := NewScheduler(tc.cfg, len(jobs))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.res[0].part, s.res[0].partKey = brokenPartitioner{}, bad.key
		for i := range jobs {
			if _, err := s.Submit(jobs[i]); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for _, ok := s.NextEventUS(); ok; _, ok = s.NextEventUS() {
			s.Step()
		}
		got := s.Result(0)
		if got.Status != tc.want.Status || got.Placement != tc.want.Placement || got.Attempts != tc.want.Attempts ||
			got.Degraded != tc.want.Degraded || (got.Status == StatusFailed) != strings.HasPrefix(got.Err, "cpu worker: ") {
			t.Errorf("%s: job on the broken partitioner ended %v on %v after %d attempts (degraded %v, error %q), want %v on %v after %d (degraded %v)",
				tc.name, got.Status, got.Placement, got.Attempts, got.Degraded, got.Err,
				tc.want.Status, tc.want.Placement, tc.want.Attempts, tc.want.Degraded)
		}
		if next := s.Result(1); next.Status != StatusDone || next.Matches == 0 {
			t.Errorf("%s: job behind the panic ended %v with %d matches (error %q), want done", tc.name, next.Status, next.Matches, next.Err)
		}
	}
}

// TestSlotResidency cycles an FPGA slot through all forty serving
// configurations (fan-out 4–64 × hash × format × layout) and a CPU slot
// through all ten of its own (fan-out × hash), twice. Each slot holds one
// partitioner from its first job on, reconfigured in place as the one
// circuit an FPGA holds is; in the second sweep no job allocates a bank,
// a fill-rate BRAM slab, output lines or CPU scratch — what is left per job
// is its partition.Result — and the heap the two slots retain after both
// sweeps is bounded by what the largest configuration alone leaves, not by
// the sum over all of them (36 times it while a slot kept a partitioner per
// configuration). The bound is three times it: a slot keeps two released
// outputs, which can be those of two large configurations, where one
// configuration keeps one.
func TestSlotResidency(t *testing.T) {
	const n = 4096
	rows, err := workload.NewGenerator(51).Relation(workload.Random, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	cols := rows.ToColumns()
	var fpgaJobs, cpuJobs []Job
	for _, fanOut := range []int{4, 8, 16, 32, 64} {
		for _, hash := range []bool{false, true} {
			cpuJobs = append(cpuJobs, Job{FanOut: fanOut, Hash: hash, Rel: rows})
			for _, format := range []partition.Format{partition.HistMode, partition.PadMode} {
				fpgaJobs = append(fpgaJobs, Job{FanOut: fanOut, Hash: hash, Format: format, Rel: rows},
					Job{FanOut: fanOut, Hash: hash, Format: format, Layout: partition.ColumnStore, Rel: cols})
			}
		}
	}
	// residency runs the jobs on new slots, each pool's twice over, and
	// returns the heap bytes the slots retain and the most one job of the
	// second sweep allocated. A slot's counts chunk holds both sweeps'
	// counts, so that no job's report allocates here.
	residency := func(fpgaJobs, cpuJobs []Job) (retained int64, perJob uint64) {
		slots := []*resource{
			{kind: PlacedFPGA, platform: platform.XeonFPGA(), counts: make([]int64, 0, 1<<13)},
			{kind: PlacedCPU, counts: make([]int64, 0, 1<<13)},
		}
		var start, before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&start)
		for i, jobs := range [][]Job{fpgaJobs, cpuJobs} {
			r := slots[i]
			var first partition.Partitioner
			for sweep := 0; sweep < 2; sweep++ {
				for j := range jobs {
					runtime.ReadMemStats(&before)
					out := r.run(&jobs[j], keyOf(&jobs[j]))
					runtime.ReadMemStats(&after)
					if !out.ok {
						t.Fatalf("%v slot, sweep %d, job %d: %s", r.kind, sweep, j, out.errMsg)
					}
					if first == nil {
						first = r.part
					} else if r.part != first {
						t.Fatalf("%v slot, sweep %d, job %d: the slot holds another partitioner than its first", r.kind, sweep, j)
					}
					if sweep == 1 {
						perJob = max(perJob, after.TotalAlloc-before.TotalAlloc)
					}
				}
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(slots)
		return int64(after.HeapAlloc) - int64(start.HeapAlloc), perJob
	}
	all, perJob := residency(fpgaJobs, cpuJobs)
	// The largest configuration: fan-out 64, hashed, PAD, whose padded
	// output is the largest, on the FPGA; fan-out 64, hashed, on the CPU.
	largest, _ := residency(fpgaJobs[len(fpgaJobs)-2:len(fpgaJobs)-1], cpuJobs[len(cpuJobs)-1:])
	t.Logf("the slots retain %d bytes after every configuration, %d after the largest alone; a job of the second sweep allocates at most %d bytes",
		all, largest, perJob)
	// A bank at fan-out 4 is 2 KiB, the BRAM slab at least n bytes and the
	// output lines at least 8n; the result is a few hundred bytes.
	if perJob >= 1024 {
		t.Errorf("a job of the second sweep allocates up to %d bytes, want less than 1 KiB: it rebuilt a buffer the slot keeps", perJob)
	}
	if all > 3*largest {
		t.Errorf("the slots retain %d bytes after all configurations, %d after the largest alone: want at most three times that", all, largest)
	}
}
