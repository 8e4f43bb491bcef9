package partserver

import (
	"bytes"
	"fmt"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/workload"
)

// renderRun executes one full scheduled run and renders every observable
// surface — report JSON, Chrome trace JSON, metrics JSON — as bytes.
func renderRun(t *testing.T, seed uint64, n int, cfg Config) []byte {
	t.Helper()
	jobs, err := GenerateTrace(seed, n, TraceOptions{MeanGapUS: 60})
	if err != nil {
		t.Fatal(err)
	}
	sess := simtrace.NewSession()
	cfg.Seed = seed
	cfg.Trace = sess
	rep, err := Run(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := sess.Tracer.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := sess.Metrics.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// faultyScenario is the shared fault mix of the determinism and race tests:
// transient faults, a mid-trace fail-stop crash, and a straggler.
func faultyScenario(seed uint64) *faults.Scenario {
	return &faults.Scenario{
		Seed:        seed,
		DropProb:    0.15,
		CorruptProb: 0.1,
		Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.4}},
		Stragglers:  []faults.Straggler{{Node: 0, Factor: 1.5}},
	}
}

// TestSameSeedByteIdentical is the scheduler's determinism contract: three
// fresh runs of the same seed and trace must render byte-identical reports,
// Chrome traces, and metric snapshots, while an FPGA crashes mid-job.
func TestSameSeedByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"faultfree", Config{FPGAs: 2, Workers: 2}},
		{"faulty", Config{FPGAs: 2, Workers: 2, Faults: faultyScenario(21)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := renderRun(t, 21, 18, tc.cfg)
			for run := 2; run <= 3; run++ {
				got := renderRun(t, 21, 18, tc.cfg)
				if !bytes.Equal(first, got) {
					t.Fatalf("run %d differs from run 1\n%s", run, firstDiff(first, got))
				}
			}
		})
	}
}

// TestSeedChangesPlacement guards against the seed being ignored: different
// seeds must be able to produce different schedules (placement ties break
// by seeded hash), while any single seed stays self-consistent.
func TestSeedChangesPlacement(t *testing.T) {
	base := renderRun(t, 5, 16, Config{FPGAs: 2, Workers: 2})
	for seed := uint64(6); seed < 16; seed++ {
		if !bytes.Equal(base, renderRun(t, seed, 16, Config{FPGAs: 2, Workers: 2})) {
			return
		}
	}
	t.Fatal("10 different seeds all produced the identical schedule; seeding is dead")
}

// TestCrashMidJobPool is the pool's stress test: a crashing instance,
// transient faults, stragglers, and every slot busy.
// All jobs must still terminate with correct results, and the crashed
// instance must be reported.
func TestCrashMidJobPool(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 30, TraceOptions{MeanGapUS: 10, MinTuples: 512, MaxTuples: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(jobs, Config{
		FPGAs:   2,
		Workers: 2,
		Seed:    seed,
		Faults: &faults.Scenario{
			Seed:        seed,
			DropProb:    0.45,
			CorruptProb: 0.45,
			Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.0}},
			Stragglers:  []faults.Straggler{{Node: 0, Factor: 2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	crashed := fmt.Sprintf("%v", rep.FailedInstances)
	if crashed != "[1]" {
		t.Errorf("failed instances %s, want [1]", crashed)
	}
	retried := 0
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Status != StatusDone {
			t.Fatalf("job %d: %v %q", r.ID, r.Status, r.Err)
		}
		if r.Attempts > 1 {
			retried++
		}
		checkResult(t, &jobs[r.ID], r)
	}
	if retried == 0 {
		t.Error("no job was ever retried despite a crash and 90% transient faults")
	}
}

// TestOverflowDegradesToCPU forces the PAD-overflow degrade path: a heavily
// Zipf-skewed PAD-mode job overflows its padded partition on the FPGA, is
// requeued pinned to the CPU pool, and still produces the single-tenant
// result (the paper's Section 5.4 fallback, scheduled).
func TestOverflowDegradesToCPU(t *testing.T) {
	// A relation this large is predicted to finish on the FPGA well before
	// the CPU, so the job must hit the overflow before it can land there.
	rel, err := workload.NewGenerator(3).ZipfRelation(1.5, 1<<20, 8, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Rel: rel, FanOut: 64, Hash: true, Format: partition.PadMode}
	rep, err := Run([]Job{job}, Config{FPGAs: 1, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := &rep.Results[0]
	if r.Status != StatusDone {
		t.Fatalf("job: %v %q", r.Status, r.Err)
	}
	if !r.Degraded || r.Placement != PlacedCPU {
		t.Fatalf("expected CPU degrade after PAD overflow, got placement=%v degraded=%v attempts=%d",
			r.Placement, r.Degraded, r.Attempts)
	}
	checkResult(t, &job, r)
}

// TestReconfigurationBatching checks the batching invariant: a same-config
// job stream on one instance reconfigures once, a strictly alternating
// stream reconfigures on every dispatch.
func TestReconfigurationBatching(t *testing.T) {
	mk := func(fanOut int, n int) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = mustJob(t, fanOut, 1024, int64(i))
		}
		return jobs
	}
	sess := simtrace.NewSession()
	if _, err := Run(mk(16, 6), Config{FPGAs: 1, Workers: 0, Seed: 1, Trace: sess}); err != nil {
		t.Fatal(err)
	}
	if got, _ := sess.Metrics.Snapshot().Get("sched.reconfigs"); got.Value != 1 {
		t.Errorf("uniform stream: %d reconfigurations, want 1", got.Value)
	}

	sess = simtrace.NewSession()
	jobs := mk(16, 6)
	for i := 1; i < len(jobs); i += 2 {
		jobs[i].FanOut = 32
	}
	// Arrivals far apart so no two jobs are ever queued together — batching
	// cannot coalesce, every dispatch alternates configuration.
	for i := range jobs {
		jobs[i].ArrivalUS = int64(i) * 100000
	}
	if _, err := Run(jobs, Config{FPGAs: 1, Workers: 0, Seed: 1, Trace: sess}); err != nil {
		t.Fatal(err)
	}
	if got, _ := sess.Metrics.Snapshot().Get("sched.reconfigs"); got.Value != 6 {
		t.Errorf("alternating stream: %d reconfigurations, want 6", got.Value)
	}
}

func mustJob(t *testing.T, fanOut, tuples int, arrival int64) Job {
	t.Helper()
	rel, err := workload.NewGenerator(arrival+int64(tuples)).Relation(workload.Random, 8, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return Job{Rel: rel, FanOut: fanOut, Hash: true, ArrivalUS: arrival}
}

// firstDiff reports the first line where want and got diverge.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  run1: %s\n  run2: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: %d lines vs %d lines", len(wl), len(gl))
}
