// Package reqtrace is the deterministic causal-tracing layer on top of
// simtrace: it threads a per-request trace context (TraceID, SpanID,
// ParentID) from cluster admission through partserver scheduling and
// execution, and turns the scheduler's attempt records into an exact
// virtual-time latency decomposition per request.
//
// Three design rules, inherited from simtrace and enforced by fpgavet:
//
//  1. Determinism. Every identifier is derived from (seed, request index,
//     span sequence) with the splitmix64 finalizer — never host entropy —
//     and every timestamp is virtual microseconds. Two runs with the same
//     seed produce byte-identical traces, breakdowns, critical-path
//     reports and postmortems, even under the race detector.
//
//  2. Conservation. A request's decomposition components sum exactly to
//     its end-to-end virtual latency (DoneUS − ArrivalUS). This is not an
//     approximation: the builder splits the same charged intervals the
//     scheduler used, so the property holds by construction and is pinned
//     by property tests, fault-free and under crashes.
//
//  3. Zero cost when disabled. The scheduler that owns a capture keeps only
//     what it does not already hold — a flight ring and each job's charged
//     attempts — and with capture off both are nil: Flight.Record is a
//     nil-receiver no-op, allocation-free when enabled too (preallocated
//     ring), and an untraced job allocates nothing new. The hotpath-alloc
//     analyzer and AllocsPerRun guards enforce it.
//
// The analysis layer extracts each request's critical path (the span chain
// is the longest path through the causal DAG — every span has a single
// causal parent), aggregates top-K path signatures across a run, and
// attributes the p99 tail to components ("p99 requests spend 71% in queue
// wait"). A bounded flight recorder keeps the last K causal events for a
// deterministic postmortem dump on simulator faults, crashes or timeouts.
package reqtrace

import "fpgapart/internal/hashutil"

// Component indexes one summand of a request's latency decomposition.
// Together the components tile [ArrivalUS, DoneUS) exactly: their sum is
// the end-to-end virtual latency, the conservation law the property tests
// pin.
type Component int

const (
	// CompRoute is the consistent-hash ring lookup and clockwise failover
	// decision. The current router model charges it zero virtual time; it
	// stays a first-class component so a future routing-cost model changes
	// a number, not the schema.
	CompRoute Component = iota
	// CompQuotaWait is per-tenant admission-quota deferral at the router
	// (AdmitUS − ArrivalUS).
	CompQuotaWait
	// CompHandoffWait is migration drain-barrier wait: a request whose key
	// just moved to a new owner waits at the router until the old owner has
	// drained its queued work for the moved range (admission to shard
	// arrival).
	CompHandoffWait
	// CompHedgeWait is the wait from admission to hedge issue, charged when
	// the replica hedge won the request: the winner's timeline starts at the
	// hedge deadline, so the deadline itself is router wait.
	CompHedgeWait
	// CompQueueWait is admission-queue plus backlog wait on the shard, from
	// scheduler arrival to the first dispatch.
	CompQueueWait
	// CompReconfig is the FPGA partial-reconfiguration window of each batch
	// the request rode through.
	CompReconfig
	// CompBatchWait is time spent waiting behind earlier jobs of the same
	// FPGA batch before this request's own execution started.
	CompBatchWait
	// CompExec is the request's own execution charge — simulated FPGA
	// cycles or the calibrated CPU rate — excluding spill traffic.
	CompExec
	// CompSpill is the spill round-trip charge of a budgeted join (bytes
	// written and re-read at the join rate).
	CompSpill
	// CompBatchDrain is time spent waiting for later jobs of the same batch
	// to finish (the scheduler completes a batch atomically).
	CompBatchDrain
	// CompRetryWait is requeue wait after a fault-, crash- or
	// overflow-aborted attempt, until the next dispatch (or the deadline).
	CompRetryWait
	// CompMergeWait is scatter-gather merge wait at the router. The current
	// merge model charges zero virtual time (results are merged at their
	// shard completion stamp); like CompRoute it is schema, not a measured
	// zero forever.
	CompMergeWait

	// NumComponents is the component count; Breakdown arrays index by it.
	NumComponents int = iota
)

var componentNames = [NumComponents]string{
	"route", "quota_wait", "handoff_wait", "hedge_wait", "queue_wait",
	"reconfig", "batch_wait", "exec", "spill", "batch_drain", "retry_wait",
	"merge_wait",
}

func (c Component) String() string {
	if c < 0 || int(c) >= NumComponents {
		return "request"
	}
	return componentNames[c]
}

// CompRequest labels a trace's root span, which is not a decomposition
// component (its duration is the whole latency).
const CompRequest Component = -1

// Breakdown is a request's latency decomposition in virtual microseconds,
// indexed by Component.
type Breakdown [NumComponents]int64

// Sum returns the total of all components — by the conservation law, the
// request's end-to-end latency.
func (b *Breakdown) Sum() int64 {
	var s int64
	for _, v := range b {
		s += v
	}
	return s
}

// TraceID identifies one request's causal trace; SpanID one span within it.
type TraceID uint64
type SpanID uint64

// NewTraceID derives the trace id of request index under seed. Pure
// function of its arguments — never host entropy — so same-seed runs carry
// identical ids.
func NewTraceID(seed uint64, index int) TraceID {
	return TraceID(hashutil.SplitMix64(seed ^ hashutil.SplitMix64(uint64(index)+1)))
}

// SpanID derives the id of the seq-th span of the trace.
func (t TraceID) SpanID(seq int) SpanID {
	return SpanID(hashutil.SplitMix64(uint64(t) ^ hashutil.SplitMix64(uint64(seq)+1)))
}

// Span is one segment of a request's causal chain. A span's causal
// predecessor is the one before it in RequestTrace.Spans (the root has
// none): every span has exactly one, so the chain is also the longest — the
// critical — path through the request's span DAG.
type Span struct {
	ID SpanID
	// Comp is the simtrace timeline the segment belongs to ("router",
	// "sched", "fpga0", "cpu1", …).
	Comp string
	// Kind classifies the segment for the decomposition (CompRequest for
	// the root).
	Kind Component
	// StartUS and DurUS locate the segment on the virtual clock.
	StartUS int64
	DurUS   int64
}

// RequestTrace is one request's complete causal record: the span chain,
// the exact latency decomposition, and the request outcome.
type RequestTrace struct {
	TraceID TraceID
	// Index is the request's position in the submitted stream (the job id
	// for a standalone partserver run).
	Index int
	// Status is the terminal status string ("done", "timedout", …;
	// "unrouted" for a request no live shard could accept).
	Status string
	// Shard is where the request executed (-1: standalone run or never
	// admitted); Rerouted and Throttled echo the router's decisions. When
	// a replica hedge finished first, the trace's execution spans are the
	// hedge's on the replica, and Shard stays the primary's id.
	Shard     int
	Rerouted  bool
	Throttled bool

	// Virtual timeline (µs) and the conservation identity:
	// Breakdown.Sum() == LatencyUS == DoneUS − ArrivalUS.
	ArrivalUS, DoneUS, LatencyUS int64

	Breakdown Breakdown
	// Spans is the causal chain, root first, in virtual-time order.
	Spans []Span
}

// Conserved reports whether the decomposition sums exactly to the
// end-to-end latency — the invariant the property tests pin.
func (rt *RequestTrace) Conserved() bool {
	return rt.Breakdown.Sum() == rt.LatencyUS
}

// PathSignature renders the request's critical path as the sequence of
// components that actually consumed virtual time, ">"-joined with
// consecutive repeats collapsed (retry loops read "reconfig>exec" once per
// distinct phase, not once per attempt). Requests whose whole latency is
// zero sign as "instant".
func (rt *RequestTrace) PathSignature() string {
	sig := ""
	last := ""
	for i := range rt.Spans {
		sp := &rt.Spans[i]
		if sp.Kind == CompRequest || sp.DurUS <= 0 {
			continue
		}
		name := sp.Kind.String()
		if name == last {
			continue
		}
		if sig != "" {
			sig += ">"
		}
		sig += name
		last = name
	}
	if sig == "" {
		return "instant"
	}
	return sig
}
