package reqtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceIDDerivation(t *testing.T) {
	if NewTraceID(42, 0) != NewTraceID(42, 0) {
		t.Fatal("trace id not a pure function of (seed, index)")
	}
	if NewTraceID(42, 0) == NewTraceID(42, 1) {
		t.Fatal("trace ids collide across indices")
	}
	if NewTraceID(42, 0) == NewTraceID(43, 0) {
		t.Fatal("trace ids collide across seeds")
	}
	id := NewTraceID(42, 7)
	if id.SpanID(0) == id.SpanID(1) {
		t.Fatal("span ids collide across sequence numbers")
	}
}

// syntheticJob builds a job that exercises every decomposition component:
// queue wait, an aborted FPGA attempt (reconfig + batch waits + spill), a
// requeue gap, then a successful retry.
func syntheticJob() JobRecord {
	return JobRecord{
		ID: 0, ArrivalUS: 100, DoneUS: 1100, Status: "done",
		Attempts: []Attempt{
			{Resource: "fpga0", StartUS: 150,
				ReconfigUS: 40, PreWaitUS: 10, ExecUS: 200, SpillUS: 30, DrainUS: 20,
				Aborted: true},
			{Resource: "fpga1", StartUS: 600,
				ReconfigUS: 40, ExecUS: 300, DrainUS: 60},
		},
	}
}

func TestBuildConservation(t *testing.T) {
	job := syntheticJob()
	step := RouterStep{ArrivalUS: 60, AdmitUS: 100, Throttled: true, Shard: 2, Primary: 1}
	rt := BuildRouted(42, 0, step, &job)

	if !rt.Conserved() {
		t.Fatalf("breakdown sum %d != latency %d\n%+v", rt.Breakdown.Sum(), rt.LatencyUS, rt.Breakdown)
	}
	if rt.LatencyUS != 1100-60 {
		t.Fatalf("latency = %d, want %d", rt.LatencyUS, 1100-60)
	}
	if !rt.Rerouted || !rt.Throttled || rt.Shard != 2 {
		t.Fatalf("router outcome not echoed: %+v", rt)
	}
	want := Breakdown{}
	want[CompQuotaWait] = 40  // 60 → 100
	want[CompQueueWait] = 50  // 100 → 150
	want[CompReconfig] = 80   // 40 per attempt
	want[CompBatchWait] = 10  // attempt 0 only
	want[CompExec] = 500      // 200 + 300
	want[CompSpill] = 30      // attempt 0 only
	want[CompBatchDrain] = 80 // 20 + 60
	// gap 450→600 between attempts, plus 1000→1100 after attempt 1's end.
	want[CompRetryWait] = 150 + 100
	if rt.Breakdown != want {
		t.Fatalf("breakdown = %+v, want %+v", rt.Breakdown, want)
	}

	// The span chain starts at the root and tiles the timeline.
	if rt.Spans[0].Kind != CompRequest {
		t.Fatalf("root span malformed: %+v", rt.Spans[0])
	}
	cursor := rt.ArrivalUS
	for i := 1; i < len(rt.Spans); i++ {
		sp := &rt.Spans[i]
		if sp.StartUS != cursor {
			t.Fatalf("span %d (%s) starts at %d, cursor %d — timeline not tiled",
				i, sp.Kind, sp.StartUS, cursor)
		}
		cursor += sp.DurUS
	}
	if cursor != rt.DoneUS {
		t.Fatalf("spans end at %d, want DoneUS %d", cursor, rt.DoneUS)
	}

	wantSig := "quota_wait>queue_wait>reconfig>batch_wait>exec>spill>batch_drain>retry_wait>reconfig>exec>batch_drain>retry_wait"
	if got := rt.PathSignature(); got != wantSig {
		t.Fatalf("path signature = %q, want %q", got, wantSig)
	}
}

func TestBuildUnrouted(t *testing.T) {
	rt := BuildRouted(42, 3, RouterStep{ArrivalUS: 500, AdmitUS: 500, Shard: -1, Primary: 0}, nil)
	if rt.Status != "unrouted" || rt.LatencyUS != 0 || !rt.Conserved() {
		t.Fatalf("unrouted trace malformed: %+v", rt)
	}
	if rt.PathSignature() != "instant" {
		t.Fatalf("unrouted path = %q, want instant", rt.PathSignature())
	}
}

func TestAnalyzeDeterministicAndRanked(t *testing.T) {
	var traces []RequestTrace
	for i := 0; i < 20; i++ {
		job := syntheticJob()
		job.ID = i
		job.ArrivalUS += int64(i) * 10
		job.DoneUS += int64(i) * 10
		for a := range job.Attempts {
			job.Attempts[a].StartUS += int64(i) * 10
		}
		if i%4 == 0 { // a second, cheaper path: single clean attempt
			job.Attempts = job.Attempts[1:]
		}
		traces = append(traces, BuildJob(42, &job))
	}

	p := Analyze(traces, 2)
	if p.Violations != 0 {
		t.Fatalf("%d conservation violations on synthetic traces", p.Violations)
	}
	if p.Requests != 20 {
		t.Fatalf("requests = %d, want 20", p.Requests)
	}
	if len(p.Paths) != 2 {
		t.Fatalf("topK not honored: %d paths", len(p.Paths))
	}
	if p.Paths[0].TotalUS < p.Paths[1].TotalUS {
		t.Fatalf("paths not ranked by total time: %+v", p.Paths)
	}
	var compSum int64
	for c := 0; c < NumComponents; c++ {
		compSum += p.Comp[c].TotalUS
	}
	if compSum != p.TotalUS {
		t.Fatalf("aggregate components sum %d != total latency %d", compSum, p.TotalUS)
	}

	if a, b := Analyze(traces, 2).Format(), Analyze(traces, 2).Format(); a != b {
		t.Fatalf("Analyze().Format() not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(p.Format(), "critical paths") {
		t.Fatalf("report lacks critical paths section:\n%s", p.Format())
	}
}

func TestFlightRingDropsOldest(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 6; i++ {
		f.Record(FlightEvent{US: int64(i), Comp: "sched", Kind: "dispatch", Job: i})
	}
	ev := f.Events()
	if len(ev) != 4 || f.Dropped() != 2 {
		t.Fatalf("ring: %d events, %d dropped; want 4 and 2", len(ev), f.Dropped())
	}
	for i, e := range ev {
		if e.Job != i+2 {
			t.Fatalf("event %d is job %d, want %d (oldest-first order broken)", i, e.Job, i+2)
		}
	}
}

func TestPostmortemDeterministic(t *testing.T) {
	f := NewFlight(8)
	f.Record(FlightEvent{US: 10, Comp: "sched", Kind: "dispatch", Job: 0, Arg: 1})
	f.Record(FlightEvent{US: 90, Comp: "fpga0", Kind: "fault", Job: 0, Arg: 1})
	f.Record(FlightEvent{US: 200, Comp: "sched", Kind: "timeout", Job: 0, Arg: 2})

	c := &Capture{Flight: f.Events(), FlightDropped: f.Dropped()}
	var a, b bytes.Buffer
	if err := c.WritePostmortem(&a, "job 0 timed out"); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePostmortem(&b, "job 0 timed out"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("postmortem bytes differ across identical dumps")
	}
	out := a.String()
	for _, want := range []string{"cause: job 0 timed out", "fault", "timeout"} {
		if !strings.Contains(out, want) {
			t.Fatalf("postmortem lacks %q:\n%s", want, out)
		}
	}
}

func TestBreakdownJSONParsesAndDeterministic(t *testing.T) {
	job := syntheticJob()
	traces := []RequestTrace{BuildJob(42, &job)}
	var a, b bytes.Buffer
	if err := WriteBreakdownJSON(&a, traces); err != nil {
		t.Fatal(err)
	}
	if err := WriteBreakdownJSON(&b, traces); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("breakdown JSON differs across identical writes")
	}
	var doc struct {
		Requests []struct {
			Index     int              `json:"index"`
			LatencyUS int64            `json:"latency_us"`
			Conserved bool             `json:"conserved"`
			Breakdown map[string]int64 `json:"breakdown"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("breakdown JSON does not parse: %v\n%s", err, a.String())
	}
	if len(doc.Requests) != 1 || !doc.Requests[0].Conserved {
		t.Fatalf("breakdown JSON content wrong: %+v", doc)
	}
	var sum int64
	for _, v := range doc.Requests[0].Breakdown {
		sum += v
	}
	if sum != doc.Requests[0].LatencyUS {
		t.Fatalf("JSON breakdown sums to %d, latency %d", sum, doc.Requests[0].LatencyUS)
	}
}

// TestDisabledFlightZeroAlloc pins the zero-cost-when-disabled rule: a
// scheduler with capture off records into a nil ring, which must not
// allocate.
func TestDisabledFlightZeroAlloc(t *testing.T) {
	var f *Flight
	allocs := testing.AllocsPerRun(100, func() {
		f.Record(FlightEvent{US: 1, Comp: "sched", Kind: "dispatch", Job: 1, Arg: 1})
	})
	if allocs != 0 {
		t.Fatalf("disabled flight ring allocates %.1f per record, want 0", allocs)
	}
}

// TestFlightRecordZeroAlloc pins that an enabled flight ring never allocates
// after construction (the ring is preallocated; overwrite reuses slots).
func TestFlightRecordZeroAlloc(t *testing.T) {
	f := NewFlight(8)
	for i := 0; i < 16; i++ { // fill past capacity so append never grows
		f.Record(FlightEvent{US: int64(i)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.Record(FlightEvent{US: 1, Comp: "sched", Kind: "dispatch", Job: 1, Arg: 1})
	})
	if allocs != 0 {
		t.Fatalf("flight ring allocates %.1f per record, want 0", allocs)
	}
}
