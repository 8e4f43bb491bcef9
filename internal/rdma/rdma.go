// Package rdma models the rack-scale RDMA fabric of the paper's second
// future-work use case (Section 6, following Barthels et al.): the FPGA
// partitioner writes partitions directly to remote machines, so a
// distributed join's network exchange happens at partitioning speed.
//
// The model is deliberately simple — per-link bandwidth, per-message
// latency, full-duplex ports — because the quantity of interest is the
// exchange time of a partitioned shuffle, not packet-level behaviour. There
// is one exchange, Fabric.Exchange. The pieces one node sends another form a
// flow: consecutive byte ranges of one stream, cut into MessageBytes
// messages. A fault injector decides the fate of every message, so drops,
// corruption, degraded links, stragglers and crashes show up as
// retransmissions, timeouts and wasted traffic with deterministic timing
// and counters. With nothing injected the exchange time is the closed form
// max over nodes of (bytes out / bandwidth + messages out · latency,
// bytes in / bandwidth).
package rdma

import (
	"fmt"
	"math"

	"fpgapart/internal/faults"
)

// Fabric describes a symmetric RDMA network.
type Fabric struct {
	// Nodes in the cluster.
	Nodes int
	// LinkGBps is each node's injection (and reception) bandwidth in GB/s
	// (e.g. 6.8 for FDR InfiniBand as in Barthels et al.).
	LinkGBps float64
	// LatencyUS is the one-sided verb latency in microseconds.
	LatencyUS float64
	// MessageBytes is the RDMA write size the exchange uses; smaller
	// messages pay proportionally more latency overhead.
	MessageBytes int
}

// FDRCluster returns an n-node fabric modeled on the FDR InfiniBand
// clusters of the distributed-join literature: ~6.8 GB/s per port, ~1.3 µs
// verbs latency, 256 KB exchange messages.
func FDRCluster(n int) *Fabric {
	return &Fabric{Nodes: n, LinkGBps: 6.8, LatencyUS: 1.3, MessageBytes: 256 << 10}
}

// Validate reports whether the fabric parameters are usable.
func (f *Fabric) Validate() error {
	if f.Nodes < 1 {
		return fmt.Errorf("rdma: %d nodes", f.Nodes)
	}
	if f.LinkGBps <= 0 {
		return fmt.Errorf("rdma: link bandwidth %v GB/s", f.LinkGBps)
	}
	if f.LatencyUS < 0 {
		return fmt.Errorf("rdma: negative latency")
	}
	if f.MessageBytes <= 0 {
		return fmt.Errorf("rdma: message size %d", f.MessageBytes)
	}
	return nil
}

// The retry policy of the exchange.
const (
	// maxAttempts is the per-message transmission budget (first try
	// included) and also the per-flow budget of checksum re-request rounds.
	maxAttempts = 5
	// backoffBaseUS is the backoff before the first retransmission; it
	// doubles every further attempt, up to backoffMaxUS.
	backoffBaseUS = 10.0
	backoffMaxUS  = 5000.0
	// jitterFrac is the fraction of each backoff that is randomized.
	jitterFrac = 0.5
)

// timeoutUS is the sender's per-message ack timeout: 4× the healthy wire
// time of a full message plus two verb latencies.
func (f *Fabric) timeoutUS() float64 {
	wire := float64(f.MessageBytes) / (f.LinkGBps * 1e9) * 1e6
	return 4*wire + 2*f.LatencyUS
}

// messages is the number of messages a flow of bytes > 0 is cut into,
// ceil(bytes / MessageBytes), without overflowing at any message size.
func (f *Fabric) messages(bytes int64) int64 {
	return (bytes-1)/int64(f.MessageBytes) + 1
}

// backoffUS returns the backoff before retransmission attempt (attempt ≥ 1
// is the first retry): min(backoffMaxUS, backoffBaseUS·2^(attempt-1)), with
// jitterFrac of it scaled by jitter01 ∈ [0, 1).
func backoffUS(attempt int, jitter01 float64) float64 {
	if attempt < 1 {
		return 0
	}
	b := backoffBaseUS * math.Pow(2, float64(attempt-1))
	if b > backoffMaxUS {
		b = backoffMaxUS
	}
	return b * (1 - jitterFrac + jitterFrac*jitter01)
}

// Piece is one partition piece to transfer: Bytes from node Src to node Dst,
// identified by ID (e.g. the global partition index) for the caller's
// bookkeeping. Src == Dst pieces are local and free.
type Piece struct {
	Src, Dst int
	Bytes    int64
	ID       uint64
}

// PieceOutcome is the final state of one piece after the exchange.
type PieceOutcome int

const (
	// PieceDelivered: the piece arrived and passed checksum verification.
	PieceDelivered PieceOutcome = iota
	// PieceFailed: the retry budget was exhausted (crashed destination or a
	// persistently failing link).
	PieceFailed
	// PieceUnsent: the source crashed before sending any of the piece.
	PieceUnsent
)

// ExchangeStats reports an exchange.
type ExchangeStats struct {
	// Seconds is the simulated exchange time including retransmissions,
	// timeouts, backoffs and straggler slowdowns, bottlenecked by the
	// busiest port.
	Seconds float64
	// Retries counts retransmissions (after a drop or timeout, and the
	// re-sent corrupt messages of later rounds).
	Retries int64
	// Corrupted counts transmission attempts that arrived corrupt.
	Corrupted int64
	// CorruptPieces counts piece receptions that failed checksum
	// verification (a piece spanning a corrupt message) and were
	// re-requested.
	CorruptPieces int64
	// RetransmittedBytes is the wire traffic beyond one clean copy of every
	// piece; WastedBytes is traffic delivered to a node that then crashed.
	RetransmittedBytes, WastedBytes int64
	// Outcomes is parallel to the pieces slice.
	Outcomes []PieceOutcome
	// FailedNodes lists destinations whose pieces failed because the node
	// crashed (sorted, unique).
	FailedNodes []int
}

// ExchangeFaults configures an exchange.
type ExchangeFaults struct {
	// Injector decides message fates; required (faults.New(faults.Scenario{})
	// injects nothing).
	Injector *faults.Injector
	// Phase salts the decision streams so repeated exchanges (e.g. the
	// recovery round) draw independent outcomes.
	Phase uint64
	// ApplyCrashes enables the scenario's node crashes; the recovery round
	// runs with it off, over the survivor set.
	ApplyCrashes bool
}

// flow is what one node sends another: its pieces, in slice order, as
// consecutive byte ranges of one stream.
type flow struct {
	src, dst int
	bytes    int64
	pieces   []int // indices into the exchanged pieces
}

// msgState is what a flow's message has done so far. The order matters:
// settle reads a piece's state as the minimum and maximum over its messages.
type msgState uint8

const (
	msgUnsent msgState = iota
	msgOK
	msgCorrupt
	msgLost // the retry budget ran out
)

// exchange is the state of one Exchange call.
type exchange struct {
	f         *Fabric
	inj       *faults.Injector
	phase     uint64
	timeoutUS float64
	stats     *ExchangeStats
	nodes     []node
}

// node is one node's side of an exchange.
type node struct {
	outUS, inUS float64 // port busy time
	received    int64   // bytes delivered to the node
	// The crash clock: the node goes down once it has sent or received cut
	// first-try messages.
	progress, cut int64
	down          bool
}

// Exchange simulates transferring the pieces under the injector's scenario.
// The off-node pieces from src to dst form one flow, cut into
// ceil(flowBytes / MessageBytes) messages; flows run in the order of their
// first piece, which — together with the hash-based injector — makes the
// result independent of wall-clock and scheduling. Faults act on messages:
//
//   - a drop times out and retries that message, within maxAttempts;
//   - a corrupt message fails the checksum of every piece it carried, and
//     the next round re-sends only the corrupt messages (per-block CRCs
//     localize the damage), within maxAttempts rounds;
//   - a crash cutoff counts a node's first-try messages, in either
//     direction;
//   - a dead destination burns the retry budget once, on the flow's next
//     message, and every piece still open on the flow fails; a dead source
//     sends nothing more, and the pieces none of whose bytes left it are
//     unsent.
func (f *Fabric) Exchange(pieces []Piece, ef ExchangeFaults) (*ExchangeStats, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if ef.Injector == nil {
		return nil, fmt.Errorf("rdma: Exchange requires a fault injector")
	}
	var flows []*flow
	byLink := map[[2]int]*flow{}
	for i, p := range pieces {
		if p.Src < 0 || p.Src >= f.Nodes || p.Dst < 0 || p.Dst >= f.Nodes {
			return nil, fmt.Errorf("rdma: piece %d links node %d to %d on a %d-node fabric", i, p.Src, p.Dst, f.Nodes)
		}
		if p.Bytes < 0 {
			return nil, fmt.Errorf("rdma: piece %d has negative size %d", i, p.Bytes)
		}
		if p.Src == p.Dst || p.Bytes == 0 {
			continue // delivered as it is
		}
		fl := byLink[[2]int{p.Src, p.Dst}]
		if fl == nil {
			fl = &flow{src: p.Src, dst: p.Dst}
			byLink[[2]int{p.Src, p.Dst}] = fl
			flows = append(flows, fl)
		}
		fl.pieces = append(fl.pieces, i)
		fl.bytes += p.Bytes
	}

	x := &exchange{
		f: f, inj: ef.Injector, phase: ef.Phase, timeoutUS: f.timeoutUS(),
		stats: &ExchangeStats{Outcomes: make([]PieceOutcome, len(pieces))},
		nodes: make([]node, f.Nodes),
	}
	for n := range x.nodes {
		x.nodes[n].cut = math.MaxInt64
	}
	if ef.ApplyCrashes {
		// AfterFraction 0.5 fails the node halfway through its share of the
		// exchange's first-try messages.
		total := make([]int64, f.Nodes)
		for _, fl := range flows {
			total[fl.src] += f.messages(fl.bytes)
			total[fl.dst] += f.messages(fl.bytes)
		}
		for _, n := range x.inj.CrashedNodes() {
			if n >= f.Nodes {
				return nil, fmt.Errorf("rdma: crash of node %d on a %d-node fabric", n, f.Nodes)
			}
			frac, _ := x.inj.CrashFraction(n)
			nd := &x.nodes[n]
			nd.cut = int64(frac * float64(total[n]))
			nd.down = nd.cut == 0
		}
	}

	failed := make([]bool, f.Nodes)
	for _, fl := range flows {
		if !x.run(pieces, fl) && x.nodes[fl.dst].down {
			failed[fl.dst] = true
		}
	}

	stats := x.stats
	var worst float64
	for n, nd := range x.nodes {
		// Everything delivered to a node that ended the exchange crashed is
		// wasted: its partitions are re-pulled by the takeover nodes.
		if nd.down {
			stats.WastedBytes += nd.received
		}
		if failed[n] {
			stats.FailedNodes = append(stats.FailedNodes, n)
		}
		s := x.inj.StraggleFactor(n)
		worst = max(worst, nd.outUS*s, nd.inUS*s)
	}
	stats.Seconds = worst * 1e-6
	return stats, nil
}

// run sends one flow message by message, round by round, and settles the
// outcome of each of its pieces. It reports whether all were delivered.
func (x *exchange) run(pieces []Piece, fl *flow) bool {
	src, dst := &x.nodes[fl.src], &x.nodes[fl.dst]
	mb := int64(x.f.MessageBytes)
	bw := x.f.LinkGBps * 1e9 * x.inj.LinkFactor(fl.src, fl.dst)
	state := make([]msgState, x.f.messages(fl.bytes))
	// Piece k of the flow spans messages span[k][0] through span[k][1].
	span := make([][2]int, len(fl.pieces))
	open := make([]int, len(fl.pieces))
	var off int64
	for k, i := range fl.pieces {
		span[k] = [2]int{int(off / mb), int((off + pieces[i].Bytes - 1) / mb)}
		off += pieces[i].Bytes
		open[k] = k
	}
	delivered := true
	// settle decides the open pieces: one whose messages all arrived intact
	// is delivered and one spanning a lost message fails. One spanning a
	// corrupt message fails its checksum and stays open for the next round,
	// unless the flow has stopped: then it fails, as does every other open
	// piece, except that one none of whose bytes left a dead source is
	// unsent.
	settle := func(stopped bool) {
		keep := open[:0]
		for _, k := range open {
			lo, hi := msgLost, msgUnsent
			for _, s := range state[span[k][0] : span[k][1]+1] {
				lo, hi = min(lo, s), max(hi, s)
			}
			oc := PieceFailed
			switch {
			case lo == msgOK && hi == msgOK:
				oc = PieceDelivered
			case hi == msgCorrupt && !stopped:
				x.stats.CorruptPieces++
				keep = append(keep, k)
				continue
			case hi == msgUnsent && src.down:
				oc = PieceUnsent
			}
			x.stats.Outcomes[fl.pieces[k]] = oc
			delivered = delivered && oc == PieceDelivered
		}
		open = keep
	}

	pending := make([]int, len(state))
	for m := range pending {
		pending[m] = m
	}
rounds:
	for round := 0; round < maxAttempts && len(pending) > 0; round++ {
		var bad []int
		for _, m := range pending {
			if src.down {
				break rounds
			}
			arrived, corrupt := x.send(fl, bw, round, m, min(mb, fl.bytes-int64(m)*mb))
			switch {
			case !arrived:
				state[m] = msgLost
				if dst.down {
					break rounds // the peer is dead: the flow is down
				}
			case corrupt:
				state[m] = msgCorrupt
				bad = append(bad, m)
			default:
				state[m] = msgOK
			}
			if round == 0 {
				for _, nd := range [2]*node{src, dst} {
					nd.progress++
					nd.down = nd.down || nd.progress >= nd.cut
				}
			}
		}
		settle(false)
		if len(bad) > 0 {
			src.outUS += x.f.LatencyUS // the receiver's NACK
		}
		pending = bad
	}
	settle(true)
	return delivered
}

// send transmits message m of a flow, size bytes, until it arrives or the
// per-message budget runs out; a dead destination never acknowledges. It
// reports whether the message arrived, and whether it arrived corrupt.
func (x *exchange) send(fl *flow, bw float64, round, m int, size int64) (arrived, corrupt bool) {
	src, dst := &x.nodes[fl.src], &x.nodes[fl.dst]
	for attempt := 0; attempt < maxAttempts; attempt++ {
		id := faults.MsgID{Phase: x.phase, Src: fl.src, Dst: fl.dst, Round: round, Msg: m, Attempt: attempt}
		if round > 0 || attempt > 0 {
			x.stats.Retries++
			x.stats.RetransmittedBytes += size
		}
		if attempt > 0 {
			src.outUS += backoffUS(attempt, x.inj.Jitter(id))
		}
		if dst.down {
			src.outUS += x.timeoutUS
			continue
		}
		fate, delayUS := x.inj.MessageFate(id)
		if fate == faults.Drop {
			src.outUS += x.timeoutUS
			continue
		}
		if fate == faults.Corrupt {
			x.stats.Corrupted++
		}
		wireUS := float64(size) / bw * 1e6
		src.outUS += wireUS + x.f.LatencyUS + delayUS
		dst.inUS += wireUS
		dst.received += size
		return true, fate == faults.Corrupt
	}
	return false, false
}
