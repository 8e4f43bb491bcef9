package partserver

import (
	"bytes"
	"strings"
	"testing"

	"fpgapart/internal/faults"
)

// TestStepperMatchesRun: a caller that submits each job only when the
// scheduler's clock reaches its arrival — the way a routing tier drives the
// stepper — gets the report Run renders for the whole trace, fail-stop
// crashes included, because Run is that loop and nothing else.
func TestStepperMatchesRun(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 24, TraceOptions{MeanGapUS: 40, TimeoutEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{FPGAs: 2, Workers: 1, Seed: seed, Faults: faultyScenario(seed)}
	want, err := Run(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewScheduler(cfg, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ended := 0
	for next := 0; ; {
		us, ok := s.NextEventUS()
		// GenerateTrace emits jobs in arrival order: hand over each one no
		// later than the event that would pass its arrival.
		for next < len(jobs) && (!ok || jobs[next].ArrivalUS <= us) {
			if _, err := s.Submit(jobs[next]); err != nil {
				t.Fatal(err)
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
		s, err := NewScheduler(Config{Faults: tc.scen}, tc.total)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.Close()
	}
}

// TestStepperSubmitAndCancel pins the stepped path's two remaining rules: a
// job may not arrive before the scheduler's clock, and Cancel ends a job
// that is still queued at the given time but lets a running one finish.
func TestStepperSubmitAndCancel(t *testing.T) {
	s, err := NewScheduler(Config{FPGAs: 1, Workers: 0, BatchMax: 1}, UnknownTotal)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
