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
	bw := simtrace.NewWriter(w, "reqtrace: writing breakdowns")
	bw.Printf("{\n  \"requests\": [")
	for i := range traces {
		rt := &traces[i]
		bw.Printf("\n    {\"index\": %d, \"trace_id\": \"%016x\", \"status\": %q, \"shard\": %d, \"rerouted\": %t, \"throttled\": %t, \"arrival_us\": %d, \"done_us\": %d, \"latency_us\": %d, \"conserved\": %t, \"path\": %q, \"breakdown\": {",
			rt.Index, uint64(rt.TraceID), rt.Status, rt.Shard,
			rt.Rerouted, rt.Throttled, rt.ArrivalUS, rt.DoneUS,
			rt.LatencyUS, rt.Conserved(), rt.PathSignature())
		for c := 0; c < NumComponents; c++ {
			if c > 0 {
				bw.Printf(", ")
			}
			bw.Printf("%q: %d", Component(c).String(), rt.Breakdown[c])
		}
		bw.Printf("}}%s", simtrace.Sep(i, len(traces)))
	}
	bw.Printf("\n  ]\n}\n")
	return bw.Flush()
}

// WritePostmortem dumps the merged flight timeline as a deterministic text
// postmortem: the cause line, the drop count, and the last events
// oldest-first on the virtual clock.
func (c *Capture) WritePostmortem(w io.Writer, cause string) error {
	bw := simtrace.NewWriter(w, "reqtrace: writing postmortem")
	bw.Printf("FLIGHT RECORDER POSTMORTEM\ncause: %s\n", cause)
	if c.FlightDropped > 0 {
		bw.Printf("(%d older events overwritten)\n", c.FlightDropped)
	}
	bw.Printf("last %d events, oldest first:\n", len(c.Flight))
	for i := range c.Flight {
		e := &c.Flight[i]
		if e.Job >= 0 {
			bw.Printf("  t=%-10d %-14s %-11s job=%d arg=%d\n", e.US, e.Comp, e.Kind, e.Job, e.Arg)
		} else {
			bw.Printf("  t=%-10d %-14s %-11s arg=%d\n", e.US, e.Comp, e.Kind, e.Arg)
		}
	}
	return bw.Flush()
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
