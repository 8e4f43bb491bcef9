package cluster

import (
	"fmt"
	"sort"

	"fpgapart/internal/reqtrace"
)

// record is a router flight event; the ring is nil, and the call free, when
// the run is untraced.
func (st *runState) record(us int64, kind string, job int, arg int64) {
	st.flight.Record(reqtrace.FlightEvent{US: us, Comp: "router", Kind: kind, Job: job, Arg: arg})
}

// finishFlight merges the router's and every shard's flight events into the
// capture — shard components prefixed "s<N>.", shard-local job ids remapped
// to request indices via the job's Tag (a hedge and its primary both name
// their request) — ordered by virtual time (stable: router before shard 0 before
// shard 1 at equal stamps). A shard that never started has no ring. Called
// via defer so a failed run still leaves a postmortem behind.
func (st *runState) finishFlight() {
	c := st.cfg.ReqTrace
	if c == nil {
		return
	}
	merged := st.flight.Events()
	dropped := st.flight.Dropped()
	for s, sched := range st.shards {
		if sched == nil {
			continue
		}
		for _, e := range sched.Flight().Events() {
			e.Comp = fmt.Sprintf("s%d.%s", s, e.Comp)
			if e.Job >= 0 {
				e.Job, _ = requestOf(sched.Result(e.Job).Tag)
			}
			merged = append(merged, e)
		}
		dropped += sched.Flight().Dropped()
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].US < merged[b].US })
	c.Flight, c.FlightDropped = merged, dropped
}

// buildTraces assembles the per-request causal traces from the router
// decisions and the shard schedulers' job records, in request order. A won
// hedge's trace is built from the hedge's job record on the replica — the
// winning causal chain — with the deadline interval charged as hedge wait.
func (st *runState) buildTraces() {
	c := st.cfg.ReqTrace
	if c == nil {
		return
	}
	traces := make([]reqtrace.RequestTrace, len(st.reqs))
	for idx := range st.reqs {
		d := &st.decisions[idx]
		step := reqtrace.RouterStep{
			ArrivalUS:    st.reqs[idx].Job.ArrivalUS,
			AdmitUS:      d.admitUS,
			Throttled:    d.throttled,
			Shard:        d.run.shard,
			Primary:      d.primary,
			HandoffUS:    d.handoffUS,
			HedgeWon:     st.hedgeWon(idx),
			HedgeIssueUS: d.hedgeIssueUS,
		}
		e := &d.run
		if step.HedgeWon {
			e = &d.hedge
		}
		var job *reqtrace.JobRecord
		if e.shard >= 0 {
			rec := st.shards[e.shard].JobRecord(e.job)
			job = &rec
		}
		traces[idx] = reqtrace.BuildRouted(st.cfg.Seed, idx, step, job)
	}
	c.Traces = traces
}
