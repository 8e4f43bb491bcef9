package simtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestFlowEventsJSON(t *testing.T) {
	tr := NewTracer(16)
	tr.Span("sched", "queue_wait", 0, 40)
	tr.FlowStart("sched", "req0", 40, 1234)
	tr.Span("fpga0", "exec", 40, 100)
	tr.FlowEnd("fpga0", "req0", 40, 1234)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := buf.String()
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, out)
	}
	var starts, ends int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "s":
			starts++
			if e["id"] != float64(1234) {
				t.Errorf("flow start id = %v, want 1234", e["id"])
			}
			if e["cat"] != "flow" {
				t.Errorf("flow start cat = %v, want flow", e["cat"])
			}
		case "f":
			ends++
			if e["bp"] != "e" {
				t.Errorf("flow end bp = %v, want \"e\"", e["bp"])
			}
			if e["id"] != float64(1234) {
				t.Errorf("flow end id = %v, want 1234", e["id"])
			}
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("flow events: %d starts, %d ends, want 1 and 1\n%s", starts, ends, out)
	}
}

func TestNilTracerFlowNoOp(t *testing.T) {
	var tr *Tracer
	tr.FlowStart("c", "n", 0, 1)
	tr.FlowEnd("c", "n", 0, 1)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer recorded %d events", tr.Len()+int(tr.Dropped()))
	}
}

func TestSessionSnapshotSurfacesDroppedEvents(t *testing.T) {
	sess := &Session{Metrics: NewRegistry(), Tracer: NewTracer(2)}
	sess.Metrics.Counter("x").Add(1)

	// No overflow: the snapshot must equal the plain registry snapshot, so
	// goldens of runs that fit the ring never move.
	before := sess.Snapshot()
	for _, m := range before {
		if m.Name == "trace.dropped_events" {
			t.Fatalf("trace.dropped_events present without any drop")
		}
	}
	if len(before) != len(sess.Metrics.Snapshot()) {
		t.Fatalf("snapshot gained metrics without drops")
	}

	for i := int64(0); i < 5; i++ {
		sess.Tracer.Instant("c", "e", i)
	}
	snap := sess.Snapshot()
	var got int64 = -1
	for _, m := range snap {
		if m.Name == "trace.dropped_events" {
			got = m.Value
		}
	}
	if want := sess.Tracer.Dropped(); got != want {
		t.Fatalf("trace.dropped_events = %d, want %d", got, want)
	}

	if !strings.Contains(sess.Summary(), "WARNING: trace ring overflowed") {
		t.Fatalf("Summary lacks the overflow warning:\n%s", sess.Summary())
	}
}

func TestSessionSnapshotNilSafe(t *testing.T) {
	var sess *Session
	if sess.Snapshot() != nil {
		t.Fatalf("nil session snapshot not nil")
	}
}
