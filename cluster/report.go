package cluster

import (
	"fmt"
	"io"
	"slices"

	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partserver"
)

// RequestResult is one request's outcome, in request order.
type RequestResult struct {
	// Index is the request's position in the submitted stream.
	Index int
	// Tenant echoes Request.Tenant.
	Tenant int
	// Shard is where the request executed (-1: never admitted — every shard
	// was dead when it arrived).
	Shard int
	// Rerouted reports that the ring's primary owner was dead and the
	// request failed over clockwise to Shard.
	Rerouted bool
	// Throttled reports that the tenant's admission quota deferred the
	// request past its arrival window.
	Throttled bool

	// HandoffUS is the migration drain-barrier wait the request paid before
	// its new owner could serve its freshly-moved key (0 otherwise).
	HandoffUS int64
	// Hedged reports a replica hedge was issued; HedgeShard is its target
	// (-1 when not hedged); HedgeWon that the hedge finished strictly first
	// (the result fields below are then the hedge's).
	Hedged     bool
	HedgeShard int
	HedgeWon   bool

	// Status is the shard scheduler's terminal status (StatusFailed for
	// never-admitted requests); for a won hedge, the hedge's status.
	Status partserver.Status

	// Virtual timeline (µs): router arrival, quota-adjusted admission,
	// completion on the winning shard; LatencyUS = DoneUS − ArrivalUS, the
	// end-to-end latency the tenant observes.
	ArrivalUS, AdmitUS, DoneUS, LatencyUS int64

	// Output shape, echoed from the winning JobResult.
	Tuples   int64
	Matches  int64
	Checksum uint32
}

// Report is the outcome of one routed request stream.
type Report struct {
	// Results holds one entry per request, in request order.
	Results []RequestResult

	// Requests, Done and Failed count the stream; Done counts StatusDone,
	// Failed counts shard failures plus never-admitted requests.
	Requests, Done, Failed int
	// Throttled counts quota-deferred requests; ThrottleDelayUS is the total
	// virtual delay the quota imposed.
	Throttled       int
	ThrottleDelayUS int64
	// Rerouted counts requests that failed over past a dead primary.
	Rerouted int
	// FailedShards lists fail-stopped shards, ascending.
	FailedShards []int

	// MakespanUS is the completion time of the last request on the global
	// virtual clock.
	MakespanUS int64
	// Matches sums join cardinalities; Checksum is the order-insensitive
	// merge (wrapping uint32 sum) of every request's output checksum — equal
	// by construction to a single-node run of the same jobs, and invariant
	// under hedging (a hedge recomputes the same content).
	Matches  int64
	Checksum uint32

	// Latency distribution over completed requests (µs, virtual): mean and
	// exact nearest-rank 50th/95th/99th percentiles. QPSx100 is completed
	// requests per second of makespan, ×100 fixed point.
	LatAvgUS, LatP50US, LatP95US, LatP99US int64
	QPSx100                                int64

	// Rebalancing measurement over this stream's routing keys: permyriad of
	// keys that change owner when shard N joins the initial ring, under the
	// ring vs. under modulo sharding (ring ≈ 10000/(N+1); modulo ≈
	// 10000·N/(N+1)).
	MovedRingX10000, MovedModX10000 int64

	// Membership churn, echoed from Config.Schedule: the events, the joined
	// and drained shard ids, and per event the permyriad of this stream's
	// keys whose owner the event actually moved.
	MembershipEvents []MembershipEvent
	JoinedShards     []int
	DrainedShards    []int
	EventMovedX10000 []int64
	// HandoffDelayed counts requests that waited out a drain barrier;
	// HandoffWaitUS their summed wait.
	HandoffDelayed int
	HandoffWaitUS  int64

	// HedgedRun echoes whether hedging was enabled; Replicas the replica-set
	// width. HedgeIssued/HedgeWon/HedgeCancelled count the hedges;
	// HedgeSavedUS is the summed latency the winning hedges shaved off their
	// primaries, HedgeWastedUS the execution the losing-but-completed hedges
	// burned.
	HedgedRun      bool
	Replicas       int
	HedgeIssued    int
	HedgeWon       int
	HedgeCancelled int
	HedgeSavedUS   int64
	HedgeWastedUS  int64

	// Per-shard load: requests routed and shard-local makespan (hedges the
	// shard ran for other owners' requests count towards its makespan, not
	// its jobs), indexed by shard id over every shard that was ever a member. A drained shard keeps its
	// row — its cumulative pre-drain load — rather than silently losing its
	// history; a joined shard's row exists from the start (zero until it
	// serves).
	ShardJobs       []int
	ShardMakespanUS []int64
}

// dynamic reports whether the run used membership churn or hedging — the
// gate for the extended report fields, counters and JSON, so static
// unhedged runs keep their exact historical bytes.
func (rep *Report) dynamic() bool {
	return len(rep.MembershipEvents) > 0 || rep.HedgedRun
}

// gather builds the per-request results from the router's decisions and
// each request's winning execution, and derives the cluster-level
// aggregates.
func (st *runState) gather() *Report {
	reqs := st.reqs
	rep := &Report{
		Results:         make([]RequestResult, len(reqs)),
		Requests:        len(reqs),
		ThrottleDelayUS: st.throttleDelayUS,
		HedgedRun:       st.cfg.HedgeUS != 0,
		Replicas:        st.cfg.Replicas,
		ShardJobs:       st.served,
		ShardMakespanUS: make([]int64, st.numShards),
	}
	for _, ev := range st.events {
		rep.MembershipEvents = append(rep.MembershipEvents, ev)
		if ev.Kind == Join {
			rep.JoinedShards = append(rep.JoinedShards, ev.Shard)
		} else {
			rep.DrainedShards = append(rep.DrainedShards, ev.Shard)
		}
	}
	for s, sched := range st.shards {
		if sched != nil {
			rep.ShardMakespanUS[s] = sched.MakespanUS()
		}
	}

	lat := make([]int64, 0, len(reqs))
	var latSum int64
	for i := range reqs {
		d := &st.decisions[i]
		rr := &rep.Results[i]
		rr.Index = i
		rr.Tenant = reqs[i].Tenant
		rr.Shard = d.run.shard
		rr.Rerouted = d.run.shard >= 0 && d.run.shard != d.primary
		rr.Throttled = d.throttled
		rr.HandoffUS = d.handoffUS
		rr.Hedged = d.hedged()
		rr.HedgeShard = d.hedge.shard
		rr.HedgeWon = st.hedgeWon(i)
		rr.ArrivalUS = reqs[i].Job.ArrivalUS
		rr.AdmitUS = d.admitUS
		var hedge partserver.JobResult
		if rr.Hedged {
			hedge = st.result(&d.hedge)
		}
		if d.run.ended {
			win := hedge
			if !rr.HedgeWon {
				win = st.result(&d.run)
			}
			rr.Status = win.Status
			rr.DoneUS = win.DoneUS
			rr.LatencyUS = win.DoneUS - rr.ArrivalUS
			rr.Tuples = win.Tuples
			rr.Matches = win.Matches
			rr.Checksum = win.Checksum
		}

		switch {
		case rr.Shard < 0:
			rr.Status = partserver.StatusFailed
			rep.Failed++
		case rr.Status == partserver.StatusFailed:
			rep.Failed++
		case rr.Status == partserver.StatusDone:
			rep.Done++
			lat = append(lat, rr.LatencyUS)
			latSum += rr.LatencyUS
		}
		if rr.Throttled {
			rep.Throttled++
		}
		if rr.Rerouted {
			rep.Rerouted++
		}
		if rr.HandoffUS > 0 {
			rep.HandoffDelayed++
			rep.HandoffWaitUS += rr.HandoffUS
		}
		// Hedge bookkeeping: a winner shaved the gap to its primary off the
		// latency; a loser was cancelled in the queue, or ran to completion
		// as wasted work.
		if rr.Hedged {
			rep.HedgeIssued++
		}
		switch {
		case !rr.Hedged:
		case rr.HedgeWon:
			rep.HedgeWon++
			rep.HedgeSavedUS += st.result(&d.run).DoneUS - hedge.DoneUS
		case hedge.Status == partserver.StatusCancelled:
			rep.HedgeCancelled++
		case hedge.Status == partserver.StatusDone:
			rep.HedgeWastedUS += hedge.ExecUS
		}
		rep.Matches += rr.Matches
		rep.Checksum += rr.Checksum
		if rr.DoneUS > rep.MakespanUS {
			rep.MakespanUS = rr.DoneUS
		}
	}
	for s := range st.dead {
		if st.dead[s] {
			rep.FailedShards = append(rep.FailedShards, s)
		}
	}

	if len(lat) > 0 {
		slices.Sort(lat)
		rep.LatAvgUS = latSum / int64(len(lat))
		rep.LatP50US = reqtrace.NearestRank(lat, 50)
		rep.LatP95US = reqtrace.NearestRank(lat, 95)
		rep.LatP99US = reqtrace.NearestRank(lat, 99)
	}
	if rep.MakespanUS > 0 {
		rep.QPSx100 = int64(rep.Done) * 100_000_000 / rep.MakespanUS
	}

	// Rebalancing: what joining shard N would move from the initial ring,
	// measured over this stream's actual keys — plus what each scheduled
	// membership event actually moved, read off the owners arrive looked up.
	keys := make([]uint64, len(reqs))
	for i := range reqs {
		keys[i] = reqs[i].Key
	}
	initial := st.rings[0]
	if grown, err := initial.WithShard(st.cfg.Shards); err == nil {
		rep.MovedRingX10000 = MovedPermyriad(keys, initial, grown)
	}
	rep.MovedModX10000 = MovedPermyriad(keys, Modulo(st.cfg.Shards), Modulo(st.cfg.Shards+1))
	for j := range st.events {
		var moved int64
		for idx := range reqs {
			if st.owner(idx, j) != st.owner(idx, j+1) {
				moved++
			}
		}
		if len(reqs) > 0 {
			moved = moved * 10000 / int64(len(reqs))
		}
		rep.EventMovedX10000 = append(rep.EventMovedX10000, moved)
	}
	return rep
}

// emit reports the run into the simtrace session, in fixed order, after the
// event loop has ended. Nil session disables everything. The membership
// and hedging counters appear only on dynamic runs, so static runs' metric
// snapshots keep their historical bytes.
func (st *runState) emit(rep *Report) {
	sess := st.cfg.Trace
	if sess == nil {
		return
	}
	m := sess.Metrics
	m.Counter("cluster.requests").Add(int64(rep.Requests))
	m.Counter("cluster.requests_done").Add(int64(rep.Done))
	m.Counter("cluster.requests_failed").Add(int64(rep.Failed))
	m.Counter("cluster.throttled").Add(int64(rep.Throttled))
	m.Counter("cluster.throttle_delay_us").Add(rep.ThrottleDelayUS)
	m.Counter("cluster.rerouted").Add(int64(rep.Rerouted))
	m.Counter("cluster.failed_shards").Add(int64(len(rep.FailedShards)))
	m.Counter("cluster.matches").Add(rep.Matches)
	m.Counter("cluster.output_checksum").Add(int64(rep.Checksum))
	m.Counter("cluster.makespan_us").Add(rep.MakespanUS)
	m.Counter("cluster.lat_avg_us").Add(rep.LatAvgUS)
	m.Counter("cluster.lat_p50_us").Add(rep.LatP50US)
	m.Counter("cluster.lat_p95_us").Add(rep.LatP95US)
	m.Counter("cluster.lat_p99_us").Add(rep.LatP99US)
	m.Counter("cluster.qps_x100").Add(rep.QPSx100)
	m.Counter("cluster.moved_ring_x10000").Add(rep.MovedRingX10000)
	m.Counter("cluster.moved_mod_x10000").Add(rep.MovedModX10000)
	if rep.dynamic() {
		m.Counter("cluster.membership_events").Add(int64(len(rep.MembershipEvents)))
		for j, moved := range rep.EventMovedX10000 {
			m.Counter(fmt.Sprintf("cluster.event%d.moved_x10000", j)).Add(moved)
		}
		m.Counter("cluster.handoff_delayed").Add(int64(rep.HandoffDelayed))
		m.Counter("cluster.handoff_wait_us").Add(rep.HandoffWaitUS)
		m.Counter("cluster.hedge_issued").Add(int64(rep.HedgeIssued))
		m.Counter("cluster.hedge_won").Add(int64(rep.HedgeWon))
		m.Counter("cluster.hedge_cancelled").Add(int64(rep.HedgeCancelled))
		m.Counter("cluster.hedge_saved_us").Add(rep.HedgeSavedUS)
		m.Counter("cluster.hedge_wasted_us").Add(rep.HedgeWastedUS)
	}
	h := m.Histogram("cluster.latency_us")
	for s := range rep.ShardJobs {
		comp := fmt.Sprintf("shard%d", s)
		m.Counter("cluster." + comp + ".jobs").Add(int64(rep.ShardJobs[s]))
		m.Counter("cluster." + comp + ".makespan_us").Add(rep.ShardMakespanUS[s])
		sess.Tracer.Span(comp, "serve", 0, rep.ShardMakespanUS[s])
	}
	for _, s := range rep.FailedShards {
		sess.Tracer.Instant("cluster", fmt.Sprintf("shard%d.crash", s), st.crashUS[s])
	}
	for j := range rep.MembershipEvents {
		ev := &rep.MembershipEvents[j]
		sess.Tracer.Instant("cluster", fmt.Sprintf("shard%d.%s", ev.Shard, ev.Kind), ev.AtUS)
	}
	for i := range rep.Results {
		rr := &rep.Results[i]
		if rr.Status == partserver.StatusDone {
			h.Observe(rr.LatencyUS)
		}
		sess.Tracer.Sample("cluster", "route.shard", rr.AdmitUS, int64(rr.Shard))
	}
}

// WriteJSON renders the report as deterministic JSON, written field by
// field in a fixed layout (the repo's golden/BENCH convention — no
// reflective marshalling), so same-seed runs emit byte-identical bytes.
// The membership/hedging section and per-result extensions appear only on
// dynamic runs, keeping static reports byte-compatible with their goldens.
func (rep *Report) WriteJSON(w io.Writer) error {
	bw := simtrace.NewWriter(w, "cluster: writing report")
	ints := func(vals []int) {
		for i, v := range vals {
			if i > 0 {
				bw.Printf(", ")
			}
			bw.Printf("%d", v)
		}
	}
	bw.Printf("{\n  \"requests\": %d,\n  \"done\": %d,\n  \"failed\": %d,\n  \"throttled\": %d,\n  \"throttle_delay_us\": %d,\n  \"rerouted\": %d,\n",
		rep.Requests, rep.Done, rep.Failed, rep.Throttled, rep.ThrottleDelayUS, rep.Rerouted)
	bw.Printf("  \"failed_shards\": [")
	ints(rep.FailedShards)
	bw.Printf("],\n  \"makespan_us\": %d,\n  \"matches\": %d,\n  \"checksum\": %d,\n  \"lat_avg_us\": %d,\n  \"lat_p50_us\": %d,\n  \"lat_p95_us\": %d,\n  \"lat_p99_us\": %d,\n  \"qps_x100\": %d,\n  \"moved_ring_x10000\": %d,\n  \"moved_mod_x10000\": %d,\n",
		rep.MakespanUS, rep.Matches, rep.Checksum, rep.LatAvgUS, rep.LatP50US, rep.LatP95US, rep.LatP99US,
		rep.QPSx100, rep.MovedRingX10000, rep.MovedModX10000)
	if rep.dynamic() {
		bw.Printf("  \"membership_events\": [\n")
		for j := range rep.MembershipEvents {
			ev := &rep.MembershipEvents[j]
			bw.Printf("    {\"kind\": %q, \"shard\": %d, \"at_us\": %d, \"moved_x10000\": %d}%s\n",
				ev.Kind.String(), ev.Shard, ev.AtUS, rep.EventMovedX10000[j], simtrace.Sep(j, len(rep.MembershipEvents)))
		}
		bw.Printf("  ],\n  \"joined\": [")
		ints(rep.JoinedShards)
		bw.Printf("],\n  \"drained\": [")
		ints(rep.DrainedShards)
		bw.Printf("],\n  \"handoff_delayed\": %d,\n  \"handoff_wait_us\": %d,\n  \"replicas\": %d,\n  \"hedged_run\": %v,\n  \"hedge_issued\": %d,\n  \"hedge_won\": %d,\n  \"hedge_cancelled\": %d,\n  \"hedge_saved_us\": %d,\n  \"hedge_wasted_us\": %d,\n",
			rep.HandoffDelayed, rep.HandoffWaitUS, rep.Replicas, rep.HedgedRun,
			rep.HedgeIssued, rep.HedgeWon, rep.HedgeCancelled, rep.HedgeSavedUS, rep.HedgeWastedUS)
	}
	bw.Printf("  \"shards\": [\n")
	for s := range rep.ShardJobs {
		bw.Printf("    {\"shard\": %d, \"jobs\": %d, \"makespan_us\": %d}%s\n",
			s, rep.ShardJobs[s], rep.ShardMakespanUS[s], simtrace.Sep(s, len(rep.ShardJobs)))
	}
	bw.Printf("  ],\n  \"results\": [\n")
	for i := range rep.Results {
		rr := &rep.Results[i]
		bw.Printf("    {\"index\": %d, \"tenant\": %d, \"shard\": %d, \"rerouted\": %v, \"throttled\": %v, \"status\": %q, \"arrival_us\": %d, \"admit_us\": %d, \"done_us\": %d, \"latency_us\": %d, \"tuples\": %d, \"matches\": %d, \"checksum\": %d",
			rr.Index, rr.Tenant, rr.Shard, rr.Rerouted, rr.Throttled, rr.Status,
			rr.ArrivalUS, rr.AdmitUS, rr.DoneUS, rr.LatencyUS,
			rr.Tuples, rr.Matches, rr.Checksum)
		if rep.dynamic() {
			bw.Printf(", \"handoff_us\": %d, \"hedged\": %v, \"hedge_shard\": %d, \"hedge_won\": %v",
				rr.HandoffUS, rr.Hedged, rr.HedgeShard, rr.HedgeWon)
		}
		bw.Printf("}%s\n", simtrace.Sep(i, len(rep.Results)))
	}
	bw.Printf("  ]\n}\n")
	return bw.Flush()
}
