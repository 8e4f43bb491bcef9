package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
)

// batchSpan is one dispatch on one shard resource, read back from the merged
// flight timeline: the jobs sent together at startUS and ended at endUS.
type batchSpan struct {
	startUS, endUS int64
	jobs           []int
}

// resourceTimelines groups the flight timeline's dispatch and end-of-attempt
// events into per-resource batch spans ("s1.fpga0" → its dispatches in time
// order). A resource is a shard's device — the first and last elements of
// the component name — whatever qualifies it in between. It fails the test
// when a dispatched job never ends. The runs that use it inject no transient
// faults, so every attempt ends in a per-job done, degrade or failed event.
func resourceTimelines(t *testing.T, flight []reqtrace.FlightEvent) map[string][]batchSpan {
	t.Helper()
	type key struct {
		comp string
		job  int
	}
	open := map[key]int64{}
	type span struct{ start, end int64 }
	batches := map[string]map[span][]int{}
	for _, e := range flight {
		if parts := strings.Split(e.Comp, "."); len(parts) > 2 {
			e.Comp = parts[0] + "." + parts[len(parts)-1]
		}
		k := key{e.Comp, e.Job}
		switch e.Kind {
		case "dispatch":
			open[k] = e.US
		case "done", "degrade", "failed":
			start, ok := open[k]
			if !ok {
				continue // "failed" of a job that never ran
			}
			delete(open, k)
			if batches[e.Comp] == nil {
				batches[e.Comp] = map[span][]int{}
			}
			sp := span{start, e.US}
			batches[e.Comp][sp] = append(batches[e.Comp][sp], e.Job)
		}
	}
	if len(open) > 0 {
		t.Fatalf("%d dispatched jobs never ended in the flight timeline: %v", len(open), open)
	}
	out := map[string][]batchSpan{}
	for comp, spans := range batches {
		for sp, jobs := range spans {
			out[comp] = append(out[comp], batchSpan{sp.start, sp.end, jobs})
		}
		sort.Slice(out[comp], func(a, b int) bool { return out[comp][a].startUS < out[comp][b].startUS })
	}
	return out
}

// checkResourcesExclusive asserts the property a real deployment has for
// free: a resource runs one batch at a time, whoever queued it. A hedge that
// ran on a private lane of the replica would overlap the replica's own
// primaries here.
func checkResourcesExclusive(t *testing.T, timelines map[string][]batchSpan) {
	t.Helper()
	for comp, spans := range timelines {
		for i := 1; i < len(spans); i++ {
			if prev, cur := spans[i-1], spans[i]; cur.startUS < prev.endUS {
				t.Errorf("%s runs requests %v over [%d, %d)us while still running %v until %dus",
					comp, cur.jobs, cur.startUS, cur.endUS, prev.jobs, prev.endUS)
			}
		}
	}
}

// TestHedgeContendsOnReplicaQueue: with every shard saturated by its own
// primaries, a hedge is one more job in the replica's queue. It dispatches
// when a replica resource is free — never while that resource is busy — and
// the queue makes at least one hedge wait past its issue time.
func TestHedgeContendsOnReplicaQueue(t *testing.T) {
	seed := uint64(42)
	reqs := hedgedLoad(t, seed, 48)
	capt := &reqtrace.Capture{}
	rep, err := Run(reqs, Config{
		Shards: 3, Seed: seed, Faults: stragglerScenario(seed),
		Replicas: 2, HedgeUS: 150, ReqTrace: capt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capt.FlightDropped > 0 {
		t.Fatalf("flight ring dropped %d events; the timelines would have holes", capt.FlightDropped)
	}
	checkResourcesExclusive(t, resourceTimelines(t, capt.Flight))

	issued := map[int]int64{}
	dispatched, queued := 0, 0
	for _, e := range capt.Flight {
		switch {
		case e.Kind == "hedge_issued":
			issued[e.Job] = e.US
		case e.Kind == "dispatch" && rep.Results[e.Job].Hedged &&
			strings.HasPrefix(e.Comp, fmt.Sprintf("s%d.", rep.Results[e.Job].HedgeShard)):
			dispatched++
			if e.US < issued[e.Job] {
				t.Errorf("request %d: hedge dispatched at %dus, before its issue at %dus", e.Job, e.US, issued[e.Job])
			}
			if e.US > issued[e.Job] {
				queued++
			}
		}
	}
	if dispatched == 0 || queued == 0 {
		t.Fatalf("%d hedges dispatched, %d of them after queueing; the replica was not saturated", dispatched, queued)
	}
}

// TestChurnExecutesEachRequestOnce: a run with K=3 membership events and
// hedging executes a request once per lane that actually runs it — one
// attempt chain on its owner, at most one more on its hedge replica, none
// anywhere else — with every resource running one batch at a time and every
// latency decomposition conserved.
func TestChurnExecutesEachRequestOnce(t *testing.T) {
	seed := seedFromName(t)
	reqs := churnLoad(t, seed, 48)
	capt := &reqtrace.Capture{}
	rep, err := Run(reqs, Config{
		Shards: 3, Seed: seed,
		Schedule: MembershipSchedule{
			{AtUS: 300, Shard: 3, Kind: Join},
			{AtUS: 700, Shard: 1, Kind: Drain},
			{AtUS: 1100, Shard: 4, Kind: Join},
		},
		Replicas: 2, HedgeUS: 150, ReqTrace: capt,
		Faults: &faults.Scenario{Seed: seed, Stragglers: []faults.Straggler{{Node: 0, Factor: 8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if capt.FlightDropped > 0 {
		t.Fatalf("flight ring dropped %d events", capt.FlightDropped)
	}
	if rep.Done != len(reqs) || rep.HedgeIssued == 0 {
		t.Fatalf("%d/%d done, %d hedges issued; the run exercises nothing", rep.Done, len(reqs), rep.HedgeIssued)
	}
	timelines := resourceTimelines(t, capt.Flight)
	checkResourcesExclusive(t, timelines)

	// chains[i][s] counts request i's completed executions on shard s.
	chains := make([]map[int]int, len(reqs))
	for comp, spans := range timelines {
		var shard int
		if _, err := fmt.Sscanf(comp, "s%d.", &shard); err != nil {
			t.Fatalf("resource %q is not on a shard", comp)
		}
		for _, sp := range spans {
			for _, i := range sp.jobs {
				if chains[i] == nil {
					chains[i] = map[int]int{}
				}
				chains[i][shard]++
			}
		}
	}
	executions := 0
	for i, byShard := range chains {
		rr := &rep.Results[i]
		for shard, n := range byShard {
			executions += n
			if shard != rr.Shard && !(rr.Hedged && shard == rr.HedgeShard) {
				t.Errorf("request %d executed on shard %d; its owner is %d, its hedge replica %d",
					i, shard, rr.Shard, rr.HedgeShard)
			}
			if n != 1 {
				t.Errorf("request %d executed %d times on shard %d", i, n, shard)
			}
		}
	}
	if max := len(reqs) + rep.HedgeIssued; executions > max {
		t.Errorf("%d executions for %d requests and %d hedges", executions, len(reqs), rep.HedgeIssued)
	}
	if prof := reqtrace.Analyze(capt.Traces, 0); prof.Violations != 0 {
		t.Errorf("%d latency decompositions do not sum to their latency", prof.Violations)
	}
}

// TestShardsApartMatchGlobalOrder pins the event loop's one liberty: while
// nothing ties the shards together it steps them on separate goroutines
// instead of in global event order. Forcing the global order throughout (a
// phantom held request keeps the shards tied) must render the same bytes.
func TestShardsApartMatchGlobalOrder(t *testing.T) {
	seed := seedFromName(t)
	reqs := churnLoad(t, seed, 48)
	cfg := Config{
		Shards: 3, Seed: seed, TenantQuota: 2, QuotaWindowUS: 400,
		Schedule: MembershipSchedule{
			{AtUS: 300, Shard: 3, Kind: Join},
			{AtUS: 700, Shard: 1, Kind: Drain},
		},
		Faults: crashScenario(seed),
	}.WithDefaults()
	render := func(holding int) []byte {
		capt := &reqtrace.Capture{}
		cfg.ReqTrace = capt
		st, err := newRunState(reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.holding = holding
		if err := st.run(); err != nil {
			t.Fatal(err)
		}
		st.plumb.buildTraces(st)
		st.plumb.finishFlight()
		var b bytes.Buffer
		if err := st.gather().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := reqtrace.WriteBreakdownJSON(&b, capt.Traces); err != nil {
			t.Fatal(err)
		}
		if err := capt.WritePostmortem(&b, "test"); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if apart, global := render(0), render(1); !bytes.Equal(apart, global) {
		t.Fatalf("shards stepped apart differ from the global order\n%s", firstDiff(apart, global))
	}
}
