package simtrace

import (
	"fmt"
	"io"
)

// EventKind distinguishes the three trace event shapes.
type EventKind uint8

const (
	// SpanEvent is a duration on a component's timeline (a pass, a phase).
	SpanEvent EventKind = iota
	// InstantEvent marks a single cycle (an overflow, a crash).
	InstantEvent
	// SampleEvent is one point of a counter time series (occupancy,
	// cumulative lines read); Chrome renders these as counter tracks.
	SampleEvent
	// FlowStartEvent opens a causality arrow at (Comp, Ts); Value carries
	// the flow id that the matching FlowEndEvent closes. Chrome draws the
	// pair as an arrow between the enclosing spans.
	FlowStartEvent
	// FlowEndEvent terminates the causality arrow with the same Value at
	// (Comp, Ts).
	FlowEndEvent
)

// Event is one trace record. Comp and Name are expected to be string
// constants (or strings whose lifetime exceeds the tracer); the tracer
// stores them as-is and never copies, so emitting an event does not
// allocate.
type Event struct {
	Kind  EventKind
	Comp  string // timeline: "circuit", "qpi", "node0", …
	Name  string
	Ts    int64 // cycle stamp (simulated µs for distjoin traces)
	Dur   int64 // SpanEvent only
	Value int64 // SampleEvent only
}

// Tracer is a fixed-capacity ring buffer of events. It stores what callers
// hand it: a trace is replay-exact only if every ts/dur was simulated, which
// holds for the circuit, partserver and cluster traces and not for the
// host-measured join spans (see the package comment). When full, the oldest
// events are overwritten (and counted as dropped) — a bounded trace of an
// arbitrarily long run, like a hardware trace buffer. The zero value of
// *Tracer (nil) disables tracing; all methods are nil-receiver no-ops.
type Tracer struct {
	ring  []Event
	next  int   // ring index of the next write
	total int64 // events ever emitted
}

// NewTracer returns a tracer holding up to capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		panic(fmt.Sprintf("simtrace: tracer capacity %d", capacity))
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Span records a duration of dur cycles starting at cycle ts on comp's
// timeline.
func (t *Tracer) Span(comp, name string, ts, dur int64) {
	t.emit(Event{Kind: SpanEvent, Comp: comp, Name: name, Ts: ts, Dur: dur})
}

// Instant marks cycle ts on comp's timeline.
func (t *Tracer) Instant(comp, name string, ts int64) {
	t.emit(Event{Kind: InstantEvent, Comp: comp, Name: name, Ts: ts})
}

// Sample records one point of the comp/name counter series at cycle ts.
func (t *Tracer) Sample(comp, name string, ts, value int64) {
	t.emit(Event{Kind: SampleEvent, Comp: comp, Name: name, Ts: ts, Value: value})
}

// FlowStart opens causality arrow id at cycle ts on comp's timeline. The
// arrow renders from the span enclosing (comp, ts) to the span enclosing
// the matching FlowEnd. Ids must be unique per trace for Chrome to pair
// them; derive them from the seeded trace-context, never a counter shared
// with another session.
func (t *Tracer) FlowStart(comp, name string, ts, id int64) {
	t.emit(Event{Kind: FlowStartEvent, Comp: comp, Name: name, Ts: ts, Value: id})
}

// FlowEnd closes causality arrow id at cycle ts on comp's timeline.
func (t *Tracer) FlowEnd(comp, name string, ts, id int64) {
	t.emit(Event{Kind: FlowEndEvent, Comp: comp, Name: name, Ts: ts, Value: id})
}

func (t *Tracer) emit(e Event) {
	if t == nil {
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.total++
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Cap returns the ring capacity (0 for nil).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return cap(t.ring)
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.total - int64(len(t.ring))
}

// Events returns the surviving events in emission order (oldest first).
// The returned slice is freshly allocated.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// WriteJSON writes the trace in the Chrome trace-event JSON format, loadable
// by chrome://tracing and Perfetto's legacy trace importer. Timestamps are
// emitted as the trace's microsecond field, so one viewer-microsecond is one
// simulated cycle. The output is written field by field in a fixed layout
// and is byte-identical for identical event sequences.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()

	// Assign Chrome thread IDs per component in first-appearance order —
	// deterministic, no map iteration.
	tids := make(map[string]int)
	var comps []string
	for _, e := range events {
		if _, ok := tids[e.Comp]; !ok {
			tids[e.Comp] = len(comps)
			comps = append(comps, e.Comp)
		}
	}

	write := func(format string, args ...interface{}) error {
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return fmt.Errorf("simtrace: writing trace: %w", err)
		}
		return nil
	}

	if err := write("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"); err != nil {
		return err
	}
	if err := write("  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {\"name\": \"fpgapart simulator (1 us = 1 cycle)\"}}"); err != nil {
		return err
	}
	for i, comp := range comps {
		if err := write(",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %d, \"args\": {\"name\": %q}}", i, comp); err != nil {
			return err
		}
	}
	for _, e := range events {
		var err error
		switch e.Kind {
		case SpanEvent:
			err = write(",\n  {\"name\": %q, \"ph\": \"X\", \"ts\": %d, \"dur\": %d, \"pid\": 0, \"tid\": %d}",
				e.Name, e.Ts, e.Dur, tids[e.Comp])
		case InstantEvent:
			err = write(",\n  {\"name\": %q, \"ph\": \"i\", \"s\": \"t\", \"ts\": %d, \"pid\": 0, \"tid\": %d}",
				e.Name, e.Ts, tids[e.Comp])
		case SampleEvent:
			// Counter tracks are keyed by (pid, name); qualify with the
			// component so each component's series gets its own track.
			err = write(",\n  {\"name\": %q, \"ph\": \"C\", \"ts\": %d, \"pid\": 0, \"tid\": %d, \"args\": {\"value\": %d}}",
				e.Comp+"."+e.Name, e.Ts, tids[e.Comp], e.Value)
		case FlowStartEvent:
			err = write(",\n  {\"name\": %q, \"cat\": \"flow\", \"ph\": \"s\", \"id\": %d, \"ts\": %d, \"pid\": 0, \"tid\": %d}",
				e.Name, e.Value, e.Ts, tids[e.Comp])
		case FlowEndEvent:
			// bp:"e" binds the arrowhead to the enclosing slice, the legacy
			// importer's convention for flow termination.
			err = write(",\n  {\"name\": %q, \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \"id\": %d, \"ts\": %d, \"pid\": 0, \"tid\": %d}",
				e.Name, e.Value, e.Ts, tids[e.Comp])
		}
		if err != nil {
			return err
		}
	}
	return write("\n]}\n")
}
