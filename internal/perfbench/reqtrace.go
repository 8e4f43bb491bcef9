package perfbench

import (
	"fmt"

	"fpgapart/cluster"
	"fpgapart/internal/faults"
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

func runReqtraceSuite(cfg Config) ([]Record, error) {
	scenarios := []clusterScenario{
		// Plain routing: queue/exec-dominated paths, no quota or retry time.
		{label: "faultfree"},
		// Hot tenant under quota: gates the quota_wait component and the
		// throttled requests' stretched critical paths.
		{label: "hottenant", quota: 2, hot: 0.4},
		// Shard fail-stop: gates retry_wait/reroute attribution and the
		// flight-recorder's crash/failover event volume.
		{label: "faulty", scenario: &faults.Scenario{
			Seed:    uint64(cfg.Seed),
			Crashes: []faults.Crash{{Node: 1, AfterFraction: 0.4}},
		}},
	}
	var records []Record
	for _, sc := range scenarios {
		rec, err := runReqtraceScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("perfbench: scenario reqtrace/%s: %w", sc.label, err)
		}
		records = append(records, rec)
	}
	return records, nil
}

func runReqtraceScenario(cfg Config, sc clusterScenario) (Record, error) {
	reqs, err := cluster.GenerateLoad(uint64(cfg.Seed), clusterRequests, cluster.LoadOptions{
		HotTenantShare: sc.hot,
		MeanGapUS:      80,
		MinTuples:      cfg.Tuples / 16,
		MaxTuples:      cfg.Tuples / 4,
	})
	if err != nil {
		return Record{}, err
	}

	capt := &reqtrace.Capture{}
	ccfg := cluster.Config{
		Shards:      clusterShards,
		TenantQuota: sc.quota,
		Seed:        uint64(cfg.Seed),
		Faults:      sc.scenario,
		ReqTrace:    capt,
	}

	if _, err := cluster.Run(reqs, ccfg); err != nil {
		return Record{}, err
	}

	prof := reqtrace.Analyze(capt.Traces, reqtraceTopK)
	if prof.Violations != 0 {
		return Record{}, fmt.Errorf("%d traces violate latency conservation", prof.Violations)
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
	return Record{
		Name:  fmt.Sprintf("reqtrace/%ds1f1w/%dreq/%s", clusterShards, clusterRequests, sc.label),
		Gated: MetricSet{simtrace.Snapshot(nil).With(gated...)},
	}, nil
}
