package simtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistrySnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(3)
	r.Gauge("alpha").Observe(7)
	r.Counter("mid").Add(1)
	r.Gauge("alpha").Observe(4) // last=4, max stays 7

	snap := r.Snapshot()
	wantOrder := []string{"alpha", "mid", "zeta"}
	if len(snap) != len(wantOrder) {
		t.Fatalf("snapshot has %d metrics, want %d", len(snap), len(wantOrder))
	}
	for i, name := range wantOrder {
		if snap[i].Name != name {
			t.Errorf("snapshot[%d] = %q, want %q", i, snap[i].Name, name)
		}
	}
	a, ok := snap.Get("alpha")
	if !ok || a.Kind != KindGauge || a.Value != 4 || a.Max != 7 {
		t.Errorf("alpha = %+v ok=%v, want gauge value 4 max 7", a, ok)
	}
	z, ok := snap.Get("zeta")
	if !ok || z.Kind != KindCounter || z.Value != 3 {
		t.Errorf("zeta = %+v ok=%v, want counter value 3", z, ok)
	}
	if _, ok := snap.Get("missing"); ok {
		t.Error("Get(missing) reported ok")
	}
}

func TestRegistryReturnsSameMetricPerName(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c2 := r.Counter("x")
	if c1 != c2 {
		t.Error("Counter(x) returned distinct instances")
	}
	c1.Add(2)
	c2.Add(3)
	if got := c1.Value(); got != 5 {
		t.Errorf("shared counter = %d, want 5", got)
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter name did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("clash")
	r.Gauge("clash")
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("anything")
	g := r.Gauge("anything")
	if c != nil || g != nil {
		t.Fatal("nil registry handed out non-nil metrics")
	}
	c.Add(5)
	c.Inc()
	g.Observe(9)
	if c.Value() != 0 {
		t.Error("nil counter accumulated a value")
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Errorf("nil registry snapshot has %d metrics", len(snap))
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := int64(0); i < 10; i++ {
		tr.Instant("c", "e", i)
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", tr.Len(), tr.Dropped())
	}
	ev := tr.Events()
	for i, e := range ev {
		if want := int64(6 + i); e.Ts != want {
			t.Errorf("event %d has ts %d, want %d (oldest-first order)", i, e.Ts, want)
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Span("c", "s", 0, 5)
	tr.Instant("c", "i", 1)
	tr.Sample("c", "v", 2, 3)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
}

// TestTraceJSONWellFormed loads the exported trace back through
// encoding/json and checks the Chrome trace-event shape.
func TestTraceJSONWellFormed(t *testing.T) {
	tr := NewTracer(16)
	tr.Span("circuit", "partition", 0, 100)
	tr.Instant("circuit", "pad_overflow", 42)
	tr.Sample("qpi", "lines_read", 64, 7)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   int64                  `json:"ts"`
			Dur  int64                  `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name + 2 thread_name metadata + 3 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("trace has %d events, want 6:\n%s", len(doc.TraceEvents), buf.String())
	}
	byPh := map[string]int{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
	}
	if byPh["M"] != 3 || byPh["X"] != 1 || byPh["i"] != 1 || byPh["C"] != 1 {
		t.Errorf("event phase mix %v, want 3 M / 1 X / 1 i / 1 C", byPh)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" {
			if e.Name != "qpi.lines_read" {
				t.Errorf("counter track name %q, want qpi.lines_read", e.Name)
			}
			if v, ok := e.Args["value"].(float64); !ok || v != 7 {
				t.Errorf("counter args %v, want value 7", e.Args)
			}
		}
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("b.lines").Add(10)
		r.Gauge("a.occ").Observe(3)
		r.Gauge("a.occ").Observe(2)
		return r.Snapshot()
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical registries produced different snapshot JSON")
	}
	var doc struct {
		Metrics []struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Value int64  `json:"value"`
			Max   int64  `json:"max"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, b1.String())
	}
	if len(doc.Metrics) != 2 || doc.Metrics[0].Name != "a.occ" || doc.Metrics[0].Max != 3 {
		t.Errorf("decoded snapshot %+v, want a.occ (max 3) first", doc.Metrics)
	}
}

func TestSessionSummary(t *testing.T) {
	var nilSession *Session
	if !strings.Contains(nilSession.Summary(), "disabled") {
		t.Error("nil session summary does not say disabled")
	}
	s := NewSession()
	s.Metrics.Counter("circuit.cycles").Add(1234)
	s.Metrics.Gauge("fifo.occ").Observe(9)
	s.Tracer.Instant("circuit", "x", 1)
	sum := s.Summary()
	for _, want := range []string{"circuit.cycles", "1234", "fifo.occ", "high water 9", "1 events recorded"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	if s.Window() != DefaultSampleWindow || nilSession.Window() != DefaultSampleWindow {
		t.Error("Window() default wrong")
	}
	s.SampleWindow = 64
	if s.Window() != 64 {
		t.Error("Window() ignored explicit setting")
	}
}

// TestHotPathDoesNotAllocate is the zero-cost guard of the tentpole: the
// per-cycle instrumentation entry points must not allocate — neither when
// tracing is disabled (nil receivers) nor when enabled (preallocated ring
// and counters).
func TestHotPathDoesNotAllocate(t *testing.T) {
	var nc *Counter
	var ng *Gauge
	var nt *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		nc.Add(1)
		nc.Inc()
		ng.Observe(3)
		nt.Sample("c", "v", 1, 2)
		nt.Span("c", "s", 1, 2)
	}); n != 0 {
		t.Errorf("disabled hot path allocates %.1f per run, want 0", n)
	}

	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	tr := NewTracer(64)
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Observe(5)
		tr.Sample("c", "v", 1, 2)
	}); n != 0 {
		t.Errorf("enabled hot path allocates %.1f per run, want 0", n)
	}
}
