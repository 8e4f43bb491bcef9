package perfbench

import (
	"fmt"

	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
)

// Every cluster cell runs with a reqtrace.Capture attached and gates the
// causal-tracing layer end to end beside the router's own telemetry: the
// per-component latency decomposition (totals and p50/p95/p99 per
// component, hedge_wait included on the hedged cell), the critical-path
// mix (count and virtual time of each top path signature), the p99 tail
// attribution, and the flight-recorder volume. Conservation is enforced
// twice: the violation count is gated at its baseline of zero AND the cell
// errors out if any trace's breakdown fails to sum to its end-to-end
// latency, so a regression in attribution can never hide behind a stale
// baseline.

// reqtraceTopK is how many critical-path signatures each cell gates.
const reqtraceTopK = 3

// reqtraceMetrics is the causal profile of one captured run as gated
// metrics.
func reqtraceMetrics(capt *reqtrace.Capture) ([]simtrace.Metric, error) {
	prof := reqtrace.Analyze(capt.Traces, reqtraceTopK)
	if prof.Violations != 0 {
		return nil, fmt.Errorf("%d traces violate latency conservation", prof.Violations)
	}

	gated := []simtrace.Metric{
		counter("reqtrace.requests", int64(prof.Requests)),
		counter("reqtrace.total_us", prof.TotalUS),
		counter("reqtrace.violations", int64(prof.Violations)),
		counter("reqtrace.tail_cut_us", prof.TailCutUS),
		counter("reqtrace.tail_requests", int64(prof.TailRequests)),
		counter("reqtrace.flight_events", int64(len(capt.Flight))),
		counter("reqtrace.flight_dropped", capt.FlightDropped),
	}
	// One quartet per component that ever accrued time; zero components stay
	// out so the report tracks only the decomposition that exists. Which
	// components are nonzero is itself a pure function of (code, seed), so
	// a component appearing or vanishing shows up as a baseline diff.
	for c := 0; c < reqtrace.NumComponents; c++ {
		cs := &prof.Comp[c]
		if cs.TotalUS == 0 {
			continue
		}
		name := reqtrace.Component(c).String()
		gated = append(gated,
			counter("reqtrace.comp."+name+".total_us", cs.TotalUS),
			counter("reqtrace.comp."+name+".p50_us", cs.P50US),
			counter("reqtrace.comp."+name+".p95_us", cs.P95US),
			counter("reqtrace.comp."+name+".p99_us", cs.P99US),
		)
	}
	// The critical-path mix: gating the signature inside the metric name
	// means a changed path shape fails the gate as a missing/extra metric,
	// not just a moved value.
	for _, p := range prof.Paths {
		gated = append(gated,
			counter("reqtrace.path{"+p.Signature+"}.count", int64(p.Count)),
			counter("reqtrace.path{"+p.Signature+"}.total_us", p.TotalUS),
		)
	}
	return gated, nil
}
