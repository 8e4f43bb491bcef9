package perfbench

import (
	"fmt"

	"fpgapart/cluster"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
)

// The reqtrace suite gates the causal-tracing layer end to end: the same
// three routing-tier cells as the cluster suite run with a reqtrace.Capture
// attached, and the gated numbers are the per-component latency decomposition
// (totals and p50/p95/p99 per component), the critical-path mix (count and
// virtual time of each top path signature), the p99 tail attribution, and
// the flight-recorder volume. Conservation is enforced twice: the violation
// count is gated at its baseline of zero AND the scenario errors out if any
// trace's breakdown fails to sum to its end-to-end latency, so a regression
// in attribution can never hide behind a stale baseline.

// reqtraceTopK is how many critical-path signatures each cell gates.
const reqtraceTopK = 3

// reqtraceCells reruns the cluster suite's first three cells: plain routing
// (queue/exec-dominated paths, no quota or retry time), the hot tenant under
// quota (the quota_wait component and the throttled requests' stretched
// critical paths) and the shard fail-stop (retry_wait/reroute attribution
// and the flight recorder's crash/failover event volume).
func reqtraceCells(cfg Config) ([]cell, error) {
	var cells []cell
	for _, sc := range clusterScenarios(cfg)[:3] {
		cells = append(cells, cell{sc.name(SuiteReqtrace), func() (simtrace.Snapshot, error) { return runReqtraceScenario(cfg, sc) }})
	}
	return cells, nil
}

func runReqtraceScenario(cfg Config, sc clusterScenario) (simtrace.Snapshot, error) {
	reqs, err := sc.load(cfg)
	if err != nil {
		return nil, err
	}

	capt := &reqtrace.Capture{}
	ccfg := sc.config(cfg)
	ccfg.ReqTrace = capt
	if _, err := cluster.Run(reqs, ccfg); err != nil {
		return nil, err
	}

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
	return simtrace.Snapshot(nil).With(gated...), nil
}
