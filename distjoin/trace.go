package distjoin

import (
	"fmt"
	"time"

	"fpgapart/internal/simtrace"
)

// Trace component names. The cluster rows show the synchronous phase
// barriers (each phase as long as its slowest node); the per-node rows show
// where each node actually spent its time inside those barriers.
const traceCompCluster = "cluster"

// emitTrace lays the finished join out on the session's timeline in
// microseconds and records the exchange counters. Only part of that timeline
// is simulated: exchange spans always are, partition spans are on the FPGA
// backend, and every local_join span (and partition spans on the CPU
// backend) is measured host time. So the counters replay exactly for a seed
// and the trace does not — two same-seed runs draw different local_join
// widths. Phases are cluster-synchronous, so the cluster spans abut:
// partition at [0, P], exchange at [P, P+E], local join at [P+E, P+E+J].
// Per-node spans start at their phase barrier and run for that node's own
// duration (zero durations are skipped: a node that owned no partitions
// after a crash takeover has no join span). Crashed nodes get an Instant at
// the start of the exchange, the phase during which they failed.
func emitTrace(sess *simtrace.Session, res *Result, nodePart, nodeJoin []time.Duration) {
	us := func(d time.Duration) int64 { return d.Microseconds() }
	partEnd := us(res.PartitionTime)
	exEnd := partEnd + us(res.ExchangeTime)

	tr := sess.Tracer
	tr.Span(traceCompCluster, "partition", 0, partEnd)
	tr.Span(traceCompCluster, "exchange", partEnd, us(res.ExchangeTime))
	tr.Span(traceCompCluster, "local_join", exEnd, us(res.JoinTime))
	for n := 0; n < res.Nodes; n++ {
		comp := fmt.Sprintf("node%d", n)
		if d := us(nodePart[n]); d > 0 {
			tr.Span(comp, "partition", 0, d)
		}
		if d := us(nodeJoin[n]); d > 0 {
			tr.Span(comp, "local_join", exEnd, d)
		}
	}
	for _, n := range res.FailedNodes {
		tr.Instant(fmt.Sprintf("node%d", n), "crash", partEnd)
	}

	m := sess.Metrics
	m.Counter("distjoin.matches").Add(res.Matches)
	m.Counter("distjoin.bytes_exchanged").Add(res.BytesExchanged)
	m.Counter("distjoin.resent_bytes").Add(res.ResentBytes)
	m.Counter("distjoin.retries").Add(res.Retries)
	m.Counter("distjoin.corrupt_pieces").Add(res.CorruptPieces)
	m.Counter("distjoin.failed_nodes").Add(int64(len(res.FailedNodes)))
}
