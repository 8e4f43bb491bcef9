package reqtrace

import (
	"fmt"
	"io"

	"fpgapart/internal/simtrace"
)

// WriteBreakdownJSON writes the per-request latency breakdowns as a JSON
// document. The writer is hand-rolled field by field — no map iteration, no
// reflection — so the bytes are a pure function of the traces and two
// same-seed runs produce identical files.
func WriteBreakdownJSON(w io.Writer, traces []RequestTrace) error {
	write := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := write("{\n  \"requests\": ["); err != nil {
		return err
	}
	for i := range traces {
		rt := &traces[i]
		sep := ","
		if i == 0 {
			sep = ""
		}
		if err := write("%s\n    {\"index\": %d, \"trace_id\": \"%016x\", \"status\": %q, \"shard\": %d, \"rerouted\": %t, \"throttled\": %t, \"arrival_us\": %d, \"done_us\": %d, \"latency_us\": %d, \"conserved\": %t, \"path\": %q, \"breakdown\": {",
			sep, rt.Index, uint64(rt.TraceID), rt.Status, rt.Shard,
			rt.Rerouted, rt.Throttled, rt.ArrivalUS, rt.DoneUS,
			rt.LatencyUS, rt.Conserved(), rt.PathSignature()); err != nil {
			return err
		}
		for c := 0; c < NumComponents; c++ {
			csep := ", "
			if c == 0 {
				csep = ""
			}
			if err := write("%s%q: %d", csep, Component(c).String(), rt.Breakdown[c]); err != nil {
				return err
			}
		}
		if err := write("}}"); err != nil {
			return err
		}
	}
	return write("\n  ]\n}\n")
}

// WritePostmortem dumps a flight recorder's surviving events as a
// deterministic text postmortem: the cause line, the drop count, and the
// last events oldest-first on the virtual clock.
func WritePostmortem(w io.Writer, cause string, events []FlightEvent, dropped int64) error {
	if _, err := fmt.Fprintf(w, "FLIGHT RECORDER POSTMORTEM\ncause: %s\n", cause); err != nil {
		return err
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d older events overwritten)\n", dropped); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "last %d events, oldest first:\n", len(events)); err != nil {
		return err
	}
	for i := range events {
		e := &events[i]
		if e.Job >= 0 {
			if _, err := fmt.Fprintf(w, "  t=%-10d %-14s %-11s job=%d arg=%d\n",
				e.US, e.Comp, e.Kind, e.Job, e.Arg); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "  t=%-10d %-14s %-11s arg=%d\n",
			e.US, e.Comp, e.Kind, e.Arg); err != nil {
			return err
		}
	}
	return nil
}

// EmitChrome adds the causal layer to a session's Chrome trace: one root
// span per request on a dedicated "req" timeline, and flow arrows binding
// each cross-component handoff of the request's critical path, so the
// Perfetto/chrome://tracing arrows walk a request through router, scheduler
// and execution timelines. Not a hot path: runs once, after the simulation.
func EmitChrome(sess *simtrace.Session, traces []RequestTrace) {
	if sess == nil || sess.Tracer == nil {
		return
	}
	tr := sess.Tracer
	for i := range traces {
		rt := &traces[i]
		name := fmt.Sprintf("req%d[%s]", rt.Index, rt.Status)
		tr.Span("req", name, rt.ArrivalUS, rt.LatencyUS)
		for s := 1; s < len(rt.Spans); s++ {
			prev, cur := &rt.Spans[s-1], &rt.Spans[s]
			if prev.Kind == CompRequest || prev.Comp == cur.Comp {
				continue
			}
			// Chrome trace flow ids must be non-negative: mask the span id
			// into 63 bits.
			id := int64(uint64(cur.ID) & (1<<63 - 1))
			tr.FlowStart(prev.Comp, name, prev.StartUS+prev.DurUS, id)
			tr.FlowEnd(cur.Comp, name, cur.StartUS, id)
		}
	}
}
