package partserver

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
)

// runRecorded runs jobs under cfg with a causal capture attached, cancelling
// job id at cancelAt[id], and checks the captured traces against the report.
// Without cancellations the run goes through Run and returns the same run
// stepped by hand, whose job records must build the same traces: Run is that
// loop and fills the capture from nothing else. Run cannot cancel, so a run
// with cancellations is stepped through runCancelling and its capture filled
// from that scheduler.
func runRecorded(t *testing.T, seed uint64, jobs []Job, cfg Config, cancelAt map[int]int64) (*Scheduler, *reqtrace.Capture) {
	t.Helper()
	capt := &reqtrace.Capture{}
	cfg.Seed = seed
	cfg.ReqTrace = capt
	var s *Scheduler
	var rep *Report
	if len(cancelAt) == 0 {
		var err error
		if rep, err = Run(jobs, cfg); err != nil {
			t.Fatal(err)
		}
	} else {
		s = runCancelling(t, jobs, cfg, cancelAt)
		s.fillCapture(nil)
		rep = s.Report()
	}
	if len(capt.Traces) != len(rep.Results) {
		t.Fatalf("%d traces for %d results", len(capt.Traces), len(rep.Results))
	}
	// The capture must agree with the report on every terminal fact.
	for i := range rep.Results {
		r := &rep.Results[i]
		rt := &capt.Traces[i]
		if rt.Status != r.Status.String() {
			t.Fatalf("job %d: trace status %q, report %v", i, rt.Status, r.Status)
		}
		if rt.ArrivalUS != r.ArrivalUS || rt.DoneUS != r.DoneUS {
			t.Fatalf("job %d: trace timeline [%d,%d], report [%d,%d]",
				i, rt.ArrivalUS, rt.DoneUS, r.ArrivalUS, r.DoneUS)
		}
	}
	if s != nil {
		return s, capt
	}

	s = runCancelling(t, jobs, cfg, nil)
	for i := range jobs {
		rec := s.JobRecord(i)
		if rt := reqtrace.BuildJob(seed, &rec); !reflect.DeepEqual(rt, capt.Traces[i]) {
			t.Fatalf("job %d: stepped record builds %+v, Run captured %+v", i, rt, capt.Traces[i])
		}
	}
	if !reflect.DeepEqual(s.Flight().Events(), capt.Flight) {
		t.Fatal("stepped flight ring differs from Run's captured timeline")
	}
	return s, capt
}

// checkConservation pins the decomposition law on every trace: the
// components sum exactly to the end-to-end virtual latency, and the span
// chain tiles [ArrivalUS, DoneUS) with no gap or overlap.
func checkConservation(t *testing.T, traces []reqtrace.RequestTrace) {
	t.Helper()
	for i := range traces {
		rt := &traces[i]
		if !rt.Conserved() {
			t.Fatalf("job %d (%s): breakdown sums to %d, latency %d\nbreakdown: %+v",
				rt.Index, rt.Status, rt.Breakdown.Sum(), rt.LatencyUS, rt.Breakdown)
		}
		cursor := rt.ArrivalUS
		for s := 1; s < len(rt.Spans); s++ {
			sp := &rt.Spans[s]
			if sp.StartUS != cursor || sp.DurUS < 0 {
				t.Fatalf("job %d (%s): span %d (%v) at %d dur %d, cursor %d — timeline not tiled",
					rt.Index, rt.Status, s, sp.Kind, sp.StartUS, sp.DurUS, cursor)
			}
			cursor += sp.DurUS
		}
		if cursor != rt.DoneUS {
			t.Fatalf("job %d (%s): spans end at %d, DoneUS %d", rt.Index, rt.Status, cursor, rt.DoneUS)
		}
	}
}

// TestReqtraceConservationFaultFree: on a clean run every component charge
// must come from queue wait, batching, and execution alone — and sum exactly.
func TestReqtraceConservationFaultFree(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 20, TraceOptions{MeanGapUS: 30})
	if err != nil {
		t.Fatal(err)
	}
	_, capt := runRecorded(t, seed, jobs, Config{FPGAs: 2, Workers: 2}, nil)
	traces := capt.Traces
	checkConservation(t, traces)
	for i := range traces {
		if rw := traces[i].Breakdown[reqtrace.CompRetryWait]; rw != 0 {
			t.Fatalf("job %d: %d µs retry wait on a fault-free run", i, rw)
		}
	}
}

// TestReqtraceConservationUnderFaults: conservation must survive transient
// faults, a fail-stop crash, a straggler, and CPU degradation — the charged
// retry attempts and requeue gaps all land in the decomposition.
func TestReqtraceConservationUnderFaults(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 24, TraceOptions{MeanGapUS: 10, MinTuples: 512, MaxTuples: 4096})
	if err != nil {
		t.Fatal(err)
	}
	s, capt := runRecorded(t, seed, jobs, Config{
		FPGAs: 2, Workers: 2,
		Faults: &faults.Scenario{
			Seed:        seed,
			DropProb:    0.45,
			CorruptProb: 0.45,
			Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.0}},
			Stragglers:  []faults.Straggler{{Node: 0, Factor: 2}},
		},
	}, nil)
	traces := capt.Traces
	checkConservation(t, traces)
	retried := false
	for i := range traces {
		if traces[i].Breakdown[reqtrace.CompRetryWait] > 0 || len(s.JobRecord(i).Attempts) > 1 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("fault scenario produced no retries; the test exercises nothing")
	}
	// The flight recorder must have witnessed the faults.
	var faults, crashes int
	for _, e := range capt.Flight {
		switch e.Kind {
		case "fault":
			faults++
		case "crash":
			crashes++
		}
	}
	if faults == 0 && crashes == 0 && capt.FlightDropped == 0 {
		t.Fatal("no fault or crash event reached the flight recorder")
	}
}

// TestReqtraceConservationWithDeadlines: jobs cancelled while queued — a
// dispatch timeout of 1µs after arrival or a cancel at 2µs, including after
// aborted attempts — must still decompose exactly: the trailing wait is
// charged as queue or retry wait.
func TestReqtraceConservationWithDeadlines(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 12, TraceOptions{MeanGapUS: 1, MinTuples: 4096, MaxTuples: 8192})
	if err != nil {
		t.Fatal(err)
	}
	cancelAt := map[int]int64{}
	for i := range jobs {
		jobs[i].ArrivalUS = 0
		if i%3 != 0 {
			cancelAt[i] = int64(i % 3)
		}
	}
	_, capt := runRecorded(t, seed, jobs, Config{
		FPGAs: 1, Workers: 0, QueueDepth: 2, BatchMax: 1,
	}, cancelAt)
	traces := capt.Traces
	checkConservation(t, traces)
	sawDeadline := false
	for i := range traces {
		if traces[i].Status == "cancelled" {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatal("no job hit its deadline; the test exercises nothing")
	}
}

// TestReqtraceByteIdentical: three fresh captured runs of the same seed must
// render byte-identical breakdown JSON, critical-path reports, and flight
// postmortems — fault-free and faulty.
func TestReqtraceByteIdentical(t *testing.T) {
	seed := seedFromName(t)
	render := func(faulty bool) []byte {
		jobs, err := GenerateTrace(seed, 18, TraceOptions{MeanGapUS: 20})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{FPGAs: 2, Workers: 2}
		if faulty {
			cfg.Faults = faultyScenario(seed)
		}
		_, capt := runRecorded(t, seed, jobs, cfg, nil)
		var b bytes.Buffer
		if err := reqtrace.WriteBreakdownJSON(&b, capt.Traces); err != nil {
			t.Fatal(err)
		}
		b.WriteString(reqtrace.Analyze(capt.Traces, 5).Format())
		if err := capt.WritePostmortem(&b, "test"); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, faulty := range []bool{false, true} {
		first := render(faulty)
		for run := 2; run <= 3; run++ {
			if got := render(faulty); !bytes.Equal(first, got) {
				t.Fatalf("faulty=%v: run %d renders different causal output", faulty, run)
			}
		}
	}
}

// TestAbortAndReconfigurationCharges pins the two charges that are constants
// of the scheduler, not configuration: an attempt aborted by a fault is
// charged half of what the same job costs when it runs to completion on the
// same instance, and loading a configuration costs 200 µs.
func TestAbortAndReconfigurationCharges(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		// Far apart: every job is a batch of one on an idle instance, the
		// pool's only resource.
		jobs[i] = mustJob(t, 16, 30000, int64(i)*100000)
	}
	s, _ := runRecorded(t, 3, jobs, Config{
		FPGAs: 1, Workers: 0,
		Faults: &faults.Scenario{Seed: 3, DropProb: 0.4},
	}, nil)
	var halved, onFPGA int
	for i := range jobs {
		at := s.JobRecord(i).Attempts
		for k, a := range at {
			// One configuration on one instance: the first batch loads it.
			want := int64(0)
			if onFPGA == 0 {
				want = 200
			}
			onFPGA++
			if a.ReconfigUS != want {
				t.Fatalf("job %d attempt %d, FPGA batch %d: reconfiguration charged %d µs, want %d", i, k, onFPGA, a.ReconfigUS, want)
			}
			if a.Aborted && k+1 < len(at) && strings.HasPrefix(at[k+1].Resource, "fpga") && !at[k+1].Aborted {
				if a.ExecUS != at[k+1].ExecUS/2 || a.SpillUS != 0 {
					t.Fatalf("job %d: aborted attempt charged %d µs, the completed one %d µs; want half", i, a.ExecUS, at[k+1].ExecUS)
				}
				halved++
			}
		}
	}
	if halved == 0 {
		t.Fatal("no job was aborted and then completed on the FPGA; the test exercises nothing")
	}
}
