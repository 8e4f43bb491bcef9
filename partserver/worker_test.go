package partserver

import (
	"strings"
	"testing"

	"fpgapart/partition"
	"fpgapart/workload"
)

// brokenPartitioner returns no result and no error, so whatever the worker
// does next with the result panics on the worker's goroutine.
type brokenPartitioner struct{}

func (brokenPartitioner) Partition(*workload.Relation) (*partition.Result, error) { return nil, nil }
func (brokenPartitioner) Name() string                                            { return "broken" }

// TestWorkerTurnsAPanicIntoAFailedJob: a job's work — since the
// single-threaded join runs on the worker's own goroutine, all of it —
// panicking past the partitioners' guards fails that job and nothing else.
func TestWorkerTurnsAPanicIntoAFailedJob(t *testing.T) {
	jobs, err := GenerateTrace(3, 2, TraceOptions{MinTuples: 64, MaxTuples: 64, JoinFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad, good := &jobState{spec: jobs[0], key: keyOf(&jobs[0])}, &jobState{spec: jobs[1], key: keyOf(&jobs[1])}
	good.key.fanOut *= 2 // its own configuration, so its own (real) partitioner
	good.spec.FanOut *= 2
	w := worker{kind: PlacedCPU, parts: map[configKey]partition.Partitioner{bad.key: brokenPartitioner{}}}
	w.runJob(bad)
	w.runJob(good)
	if bad.out.ok || !strings.HasPrefix(bad.out.errMsg, "cpu worker: ") {
		t.Errorf("job on the broken partitioner: ok %v, error %q; want a failure reported by the worker", bad.out.ok, bad.out.errMsg)
	}
	if !good.out.ok || good.out.matches == 0 {
		t.Errorf("job after the panic: ok %v, error %q, %d matches", good.out.ok, good.out.errMsg, good.out.matches)
	}
}
