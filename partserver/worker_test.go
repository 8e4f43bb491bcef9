package partserver

import (
	"strings"
	"testing"

	"fpgapart/partition"
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
	jobs[1].FanOut = 2 * jobs[0].FanOut // its own configuration, so its own (real) partitioner
	bad, good := &jobState{spec: jobs[0], key: keyOf(&jobs[0])}, &jobState{spec: jobs[1], key: keyOf(&jobs[1])}
	r := resource{kind: PlacedCPU, parts: map[configKey]partition.Partitioner{bad.key: brokenPartitioner{}}}
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
		s.res[0].parts[bad.key] = brokenPartitioner{}
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
