package partserver

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fpgapart/internal/faults"
)

// TestStepperMatchesRun: a caller that submits each job only when the
// scheduler's clock reaches its arrival, and sets its cancellation then —
// the way a routing tier drives the stepper — gets the report of Run's loop
// over the whole trace, fail-stop crashes included (runRecorded holds Run to
// that loop).
func TestStepperMatchesRun(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 24, TraceOptions{MeanGapUS: 40})
	if err != nil {
		t.Fatal(err)
	}
	cancelAt := map[int]int64{}
	for i := 6; i < len(jobs); i += 7 {
		cancelAt[i] = jobs[i].ArrivalUS + 1 + int64(i%5) // a tight dispatch timeout
	}
	cfg := Config{FPGAs: 2, Workers: 1, Seed: seed, Faults: faultyScenario(seed)}
	want := runCancelling(t, jobs, cfg, cancelAt).Report()

	s, err := NewScheduler(cfg, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	ended := 0
	for next := 0; ; {
		us, ok := s.NextEventUS()
		// GenerateTrace emits jobs in arrival order: hand over each one no
		// later than the event that would pass its arrival.
		for next < len(jobs) && (!ok || jobs[next].ArrivalUS <= us) {
			id, err := s.Submit(jobs[next])
			if err != nil {
				t.Fatal(err)
			}
			if at, ok := cancelAt[id]; ok {
				s.Cancel(id, at)
			}
			next++
			us, ok = s.NextEventUS()
		}
		if !ok {
			break
		}
		for _, id := range s.Step() {
			if r := s.Result(id); r.DoneUS != us {
				t.Errorf("job %d listed by the step at %dus ended at %dus", id, us, r.DoneUS)
			}
			ended++
		}
	}
	if ended != len(jobs) {
		t.Fatalf("steps listed %d ended jobs, submitted %d", ended, len(jobs))
	}
	var wb, gb bytes.Buffer
	if err := want.WriteJSON(&wb); err != nil {
		t.Fatal(err)
	}
	if err := s.Report().WriteJSON(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("stepped report differs from Run's\n%s", firstDiff(wb.Bytes(), gb.Bytes()))
	}
	if len(want.FailedInstances) == 0 {
		t.Fatal("no instance crashed; the crash thresholds were not exercised")
	}
	if !slices.ContainsFunc(want.Results, func(r JobResult) bool { return r.Status == StatusCancelled }) {
		t.Fatal("no job was cancelled; the dispatch timeouts were not exercised")
	}
}

// TestCancelAtZero: a cancellation dated 0µs, set before the first Step,
// cancels the queued job at 0µs — 0 is a time like any other, not "no
// cancellation" — and leaves the job beside it to run.
func TestCancelAtZero(t *testing.T) {
	jobs := []Job{mustJob(t, 8, 2048, 0), mustJob(t, 8, 2048, 0)}
	s := runCancelling(t, jobs, Config{FPGAs: 1, Workers: 0, BatchMax: 1}, map[int]int64{1: 0})
	if r := s.Result(1); r.Status != StatusCancelled || r.DoneUS != 0 {
		t.Errorf("job cancelled at 0us ended %v at %dus, want cancelled at 0us", r.Status, r.DoneUS)
	}
	if r := s.Result(0); r.Status != StatusDone {
		t.Errorf("the job beside it ended %v, want done", r.Status)
	}
}

// TestStepperCrashesNeedDeclaredTotal: the FPGA crash threshold is a
// fraction of ceil(totalJobs/FPGAs). A stepped caller that cannot declare the
// total is refused a scenario with Crashes rather than given a share that
// depends on when it happened to submit; without Crashes it runs.
func TestStepperCrashesNeedDeclaredTotal(t *testing.T) {
	crashes := &faults.Scenario{Seed: 1, Crashes: []faults.Crash{{Node: 0, AfterFraction: 0.5}}}
	if _, err := NewScheduler(Config{Faults: crashes}, UnknownTotal); err == nil ||
		!strings.Contains(err.Error(), "job total") {
		t.Fatalf("Crashes without a declared total: error %v, want a refusal naming the job total", err)
	}
	for _, tc := range []struct {
		name  string
		scen  *faults.Scenario
		total int
	}{
		{"declared", crashes, 8},
		{"declared-empty", crashes, 0},
		{"stragglers-only", &faults.Scenario{Seed: 1, Stragglers: []faults.Straggler{{Node: 0, Factor: 4}}}, UnknownTotal},
	} {
		if _, err := NewScheduler(Config{Faults: tc.scen}, tc.total); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestStepperSubmitAndCancel pins the stepped path's remaining rules: a job
// may not arrive before the scheduler's clock, Cancel ends a job that is
// still queued at the given time but lets a running one finish, neither can
// take the clock backwards, and an id never submitted is not a crash.
func TestStepperSubmitAndCancel(t *testing.T) {
	s, err := NewScheduler(Config{FPGAs: 1, Workers: 0, BatchMax: 1}, UnknownTotal)
	if err != nil {
		t.Fatal(err)
	}
	var ids [3]int
	for i := range ids {
		if ids[i], err = s.Submit(mustJob(t, 8, 2048, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Step() // t=0: job 0 dispatches, jobs 1 and 2 queue behind it
	s.Cancel(ids[0], 1)
	s.Cancel(ids[2], 1)
	if us, ok := s.NextEventUS(); !ok || us != 1 {
		t.Fatalf("next event at %dus (ok=%v), want the cancellation at 1us", us, ok)
	}
	if ended := s.Step(); len(ended) != 1 || ended[0] != ids[2] || s.Result(ids[2]).Status != StatusCancelled {
		t.Fatalf("step at 1us ended %v (job 2 %v), want job 2 cancelled", ended, s.Result(ids[2]).Status)
	}
	if _, err := s.Submit(mustJob(t, 8, 64, 0)); err == nil {
		t.Error("a job arriving at 0us was accepted with the clock at 1us")
	}

	// A cancellation dated before the clock takes effect now, at 5us.
	late, err := s.Submit(mustJob(t, 8, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	if us, _ := s.NextEventUS(); us != 5 {
		t.Fatalf("next event at %dus, want the arrival at 5us", us)
	}
	s.Step()
	s.Cancel(late, 2)
	if us, ok := s.NextEventUS(); !ok || us != 5 {
		t.Errorf("after a cancellation dated 2us with the clock at 5us the next event is at %dus (ok=%v), want 5us", us, ok)
	}
	s.Step()
	if r := s.Result(late); r.Status != StatusCancelled || r.DoneUS != 5 {
		t.Errorf("job cancelled in the past ended %v at %dus, want cancelled at 5us", r.Status, r.DoneUS)
	}

	// An unknown id, not an index panic: Cancel ignores it, Result answers
	// with a failed job -1, JobRecord with a record of job -1.
	s.Cancel(99, 10)
	s.Cancel(-1, 10)
	if r := s.Result(99); r.ID != -1 || r.Status != StatusFailed || !strings.Contains(r.Err, "99") {
		t.Errorf("Result(99) = job %d, %v, error %q; want job -1, failed, an error naming 99", r.ID, r.Status, r.Err)
	}
	if rec := s.JobRecord(99); rec.ID != -1 || len(rec.Attempts) != 0 {
		t.Errorf("JobRecord(99) = job %d with %d attempts, want job -1 with none", rec.ID, len(rec.Attempts))
	}
	for {
		if _, ok := s.NextEventUS(); !ok {
			break
		}
		s.Step()
	}
	for _, id := range []int{ids[0], ids[1]} {
		if r := s.Result(id); r.Status != StatusDone {
			t.Errorf("job %d ended %v, want done (a running job is not cancelled)", id, r.Status)
		}
	}
}

// TestSchedulerStartsNoGoroutine: the scheduler executes a batch where it
// dispatches it, so from construction through the last Step — FPGA and CPU
// slots, faults, a crash and retries included — the process has exactly the
// goroutines it had before, and there is nothing to close afterwards.
func TestSchedulerStartsNoGoroutine(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 24, TraceOptions{MeanGapUS: 40})
	if err != nil {
		t.Fatal(err)
	}
	joinEvery(t, jobs, 2)
	before := runtime.NumGoroutine()
	// Transient faults dense enough that a job exhausts its FPGA retries.
	scen := faultyScenario(seed)
	scen.DropProb = 0.4
	s, err := NewScheduler(Config{FPGAs: 2, Workers: 1, Seed: seed, Faults: scen}, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if _, err := s.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines with the trace submitted, %d before the scheduler existed", n, before)
	}
	for _, ok := s.NextEventUS(); ok; _, ok = s.NextEventUS() {
		s.Step()
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("%d goroutines after the step at %dus, %d before the scheduler existed", n, s.now, before)
		}
	}
	if rep := s.Report(); rep.PlacedFPGA == 0 || rep.PlacedCPU == 0 || rep.Degraded == 0 {
		t.Fatalf("placed %d on FPGA, %d on CPU, %d degraded: the pool was not exercised", rep.PlacedFPGA, rep.PlacedCPU, rep.Degraded)
	}
}
