package cluster

import (
	"bytes"
	"strings"
	"testing"

	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
)

// runCaptured executes one routed run with causal capture attached.
func runCaptured(t *testing.T, seed uint64, n int, cfg Config) (*Report, *reqtrace.Capture) {
	t.Helper()
	reqs, err := GenerateLoad(seed, n, LoadOptions{MeanGapUS: 60, HotTenantShare: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	capt := &reqtrace.Capture{}
	cfg.Seed = seed
	cfg.ReqTrace = capt
	rep, err := Run(reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCapture(t, rep, capt)
	return rep, capt
}

// checkCapture holds a captured run to the causal oracle: one trace per
// request, each conserved, its spans tiling [ArrivalUS, DoneUS) with no gap
// or overlap, and a done request's trace ending when the report says.
func checkCapture(t *testing.T, rep *Report, capt *reqtrace.Capture) {
	t.Helper()
	if len(capt.Traces) != len(rep.Results) {
		t.Fatalf("%d traces for %d requests", len(capt.Traces), len(rep.Results))
	}
	for i := range capt.Traces {
		rt := &capt.Traces[i]
		if !rt.Conserved() {
			t.Fatalf("request %d (%s): breakdown sums to %d, latency %d\n%+v",
				i, rt.Status, rt.Breakdown.Sum(), rt.LatencyUS, rt.Breakdown)
		}
		cursor := rt.ArrivalUS
		for s := 1; s < len(rt.Spans); s++ {
			sp := &rt.Spans[s]
			if sp.StartUS != cursor || sp.DurUS < 0 {
				t.Fatalf("request %d (%s): span %d (%v) at %d dur %d, cursor %d — timeline not tiled",
					i, rt.Status, s, sp.Kind, sp.StartUS, sp.DurUS, cursor)
			}
			cursor += sp.DurUS
		}
		if cursor != rt.DoneUS {
			t.Fatalf("request %d (%s): spans end at %d, DoneUS %d", i, rt.Status, cursor, rt.DoneUS)
		}
		if rr := &rep.Results[i]; rt.Status == "done" && rt.DoneUS != rr.DoneUS {
			t.Fatalf("request %d: done trace ends at %d, report at %d", i, rt.DoneUS, rr.DoneUS)
		}
	}
}

// TestClusterReqtraceConservation pins the end-to-end conservation law on
// the full stack (runCaptured checks it on every trace): router quota deferral + shard scheduling + execution must
// decompose every request's latency exactly, fault-free and with a shard
// fail-stopping mid-stream.
func TestClusterReqtraceConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"faultfree", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400}},
		{"faulty", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400, Faults: crashScenario(23)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, capt := runCaptured(t, 23, 18, tc.cfg)
			throttled := false
			for i := range capt.Traces {
				rt := &capt.Traces[i]
				if rt.Throttled {
					throttled = true
					if rt.Breakdown[reqtrace.CompQuotaWait] == 0 {
						t.Fatalf("request %d throttled but no quota wait charged", i)
					}
				}
				// The trace must agree with the report on the end-to-end facts.
				rr := &rep.Results[i]
				if rt.Status != rr.Status.String() || rt.Shard != rr.Shard {
					t.Fatalf("request %d: trace %s/shard %d, report %v/shard %d",
						i, rt.Status, rt.Shard, rr.Status, rr.Shard)
				}
				if rr.DoneUS > 0 && rt.LatencyUS != rr.DoneUS-rr.ArrivalUS {
					t.Fatalf("request %d: trace latency %d, report %d",
						i, rt.LatencyUS, rr.DoneUS-rr.ArrivalUS)
				}
			}
			if !throttled {
				t.Fatal("quota config produced no throttled request; test exercises nothing")
			}
		})
	}
}

// TestClusterReqtraceFaulty checks the failure surfaces: a crashed shard
// leaves shard_crash and failover events in the merged flight timeline, and
// rerouted requests are marked on their traces.
func TestClusterReqtraceFaulty(t *testing.T) {
	_, capt := runCaptured(t, 23, 18, Config{Shards: 3, Faults: crashScenario(23)})
	var crash, failover bool
	for _, e := range capt.Flight {
		switch e.Kind {
		case "shard_crash":
			crash = true
		case "failover":
			failover = true
		}
	}
	if !crash || !failover {
		t.Fatalf("flight timeline lacks crash/failover evidence (crash=%v failover=%v)", crash, failover)
	}
	rerouted := false
	for i := range capt.Traces {
		rerouted = rerouted || capt.Traces[i].Rerouted
	}
	if !rerouted {
		t.Fatal("no trace marked rerouted despite a shard crash")
	}
	for i := 1; i < len(capt.Flight); i++ {
		if capt.Flight[i].US < capt.Flight[i-1].US {
			t.Fatalf("merged flight timeline out of order at %d", i)
		}
	}
	var b bytes.Buffer
	if err := capt.WritePostmortem(&b, "shard 1 fail-stop"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "shard_crash") {
		t.Fatalf("postmortem lacks the shard crash:\n%s", b.String())
	}
}

// TestClusterReqtraceByteIdentical: three fresh captured runs must render
// byte-identical breakdown JSON, critical-path reports, postmortems and
// Chrome traces (flow arrows included) per seed — the tracing layer adds no
// nondeterminism even with concurrent shard goroutines under -race.
func TestClusterReqtraceByteIdentical(t *testing.T) {
	render := func(cfg Config) []byte {
		sess := simtrace.NewSession()
		cfg.Trace = sess
		_, capt := runCaptured(t, 23, 18, cfg)
		var b bytes.Buffer
		if err := reqtrace.WriteBreakdownJSON(&b, capt.Traces); err != nil {
			t.Fatal(err)
		}
		b.WriteString(reqtrace.Analyze(capt.Traces, 5).Format())
		if err := capt.WritePostmortem(&b, "test"); err != nil {
			t.Fatal(err)
		}
		reqtrace.EmitChrome(sess, capt.Traces)
		if err := sess.Tracer.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"faultfree", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400}},
		{"faulty", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400, Faults: crashScenario(23)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := render(tc.cfg)
			for run := 2; run <= 3; run++ {
				if got := render(tc.cfg); !bytes.Equal(first, got) {
					t.Fatalf("run %d differs from run 1\n%s", run, firstDiff(first, got))
				}
			}
		})
	}
}

// TestClusterP50Report pins the new exact p50: it must lie between 0 and
// p95 and match the report's own percentile helper on the request stream.
func TestClusterP50Report(t *testing.T) {
	rep, _ := runCaptured(t, 23, 18, Config{Shards: 3})
	if rep.LatP50US <= 0 || rep.LatP50US > rep.LatP95US || rep.LatP95US > rep.LatP99US {
		t.Fatalf("percentiles incoherent: p50=%d p95=%d p99=%d",
			rep.LatP50US, rep.LatP95US, rep.LatP99US)
	}
}
