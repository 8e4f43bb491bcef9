package cluster

import (
	"fmt"
	"sort"

	"fpgapart/internal/reqtrace"
)

// capturePlumbing is the per-run causal-tracing state: one recorder per
// shard (handed to the shard's scheduler) plus the router's own flight ring.
// nil when the run is untraced.
type capturePlumbing struct {
	cap    *reqtrace.Capture
	recs   []*reqtrace.Recorder
	router *reqtrace.Flight
}

func newCapturePlumbing(c *reqtrace.Capture, shards int) *capturePlumbing {
	if c == nil {
		return nil
	}
	p := &capturePlumbing{
		cap:    c,
		recs:   make([]*reqtrace.Recorder, shards),
		router: reqtrace.NewFlight(c.FlightCap),
	}
	for s := range p.recs {
		p.recs[s] = reqtrace.NewRecorder(c.FlightCap)
	}
	return p
}

// record is a nil-safe router flight event.
func (p *capturePlumbing) record(us int64, kind string, job int, arg int64) {
	if p == nil {
		return
	}
	p.router.Record(reqtrace.FlightEvent{US: us, Comp: "router", Kind: kind, Job: job, Arg: arg})
}

// shardRecorder returns shard s's recorder (nil when untraced).
func (p *capturePlumbing) shardRecorder(s int) *reqtrace.Recorder {
	if p == nil {
		return nil
	}
	return p.recs[s]
}

// finishFlight merges the router's and every shard's flight events into the
// capture — shard components prefixed "s<N>.", shard-local job ids remapped
// to request indices via Job.Tag (a hedge and its primary both name their
// request) — ordered by virtual time (stable: router before shard 0 before
// shard 1 at equal stamps). Called via defer so a failed run still leaves a
// postmortem behind.
func (p *capturePlumbing) finishFlight() {
	if p == nil {
		return
	}
	merged := p.router.Events()
	dropped := p.router.Dropped()
	for s, rec := range p.recs {
		for _, e := range rec.FlightEvents() {
			e.Comp = fmt.Sprintf("s%d.%s", s, e.Comp)
			if e.Job >= 0 {
				if j := rec.Job(e.Job); j != nil {
					e.Job, _ = requestOf(j.Tag)
				}
			}
			merged = append(merged, e)
		}
		dropped += rec.FlightDropped()
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].US < merged[b].US })
	p.cap.Flight = merged
	p.cap.FlightDropped = dropped
}

// buildTraces assembles the per-request causal traces from the router
// decisions and the shard recorders, in request order. A won hedge's trace
// is built from the hedge's job record on the replica — the winning causal
// chain — with the deadline interval charged as hedge wait.
func (p *capturePlumbing) buildTraces(st *runState) {
	if p == nil {
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
			Hedged:       d.hedged(),
			HedgeWon:     d.hedgeWon(),
			HedgeIssueUS: d.hedgeIssueUS,
		}
		e := &d.run
		if step.HedgeWon {
			e = &d.hedge
		}
		var job *reqtrace.JobRecord
		if e.shard >= 0 {
			job = p.recs[e.shard].Job(e.job)
		}
		traces[idx] = reqtrace.BuildRouted(st.cfg.Seed, idx, step, job)
	}
	p.cap.Traces = traces
}
