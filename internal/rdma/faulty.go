// Fault-aware exchange: the message-level counterpart of ExchangeSeconds.
// Where ExchangeSeconds prices a perfect all-to-all shuffle from the byte
// matrix alone, ExchangePieces walks every piece message by message under a
// fault injector and a fixed retry policy, so that drops, corruption, degraded
// links, stragglers and crashes show up as retransmissions, timeouts and
// wasted traffic — with fully deterministic timing and counters.
package rdma

import (
	"fmt"
	"math"

	"fpgapart/internal/faults"
)

// The retry policy of the fault-aware exchange.
const (
	// maxAttempts is the per-message transmission budget (first try
	// included) and also the per-piece budget of checksum re-request rounds.
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
// identified by ID (the global partition index) for the deterministic
// decision streams. Src == Dst pieces are local and free.
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
	// PieceUnsent: the source crashed before sending the piece.
	PieceUnsent
)

// ExchangeStats reports a fault-aware exchange.
type ExchangeStats struct {
	// Seconds is the simulated exchange time including retransmissions,
	// timeouts, backoffs and straggler slowdowns, bottlenecked by the
	// busiest port as in ExchangeSeconds.
	Seconds float64
	// Messages is the number of transmission attempts; Retries counts the
	// retransmissions among them (message-level and whole-piece).
	Messages, Retries int64
	// Dropped, Corrupted and Delayed count per-fate transmission attempts.
	Dropped, Corrupted, Delayed int64
	// CorruptPieces counts piece receptions that failed checksum
	// verification and were re-requested.
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

// ExchangeFaults configures a fault-aware exchange.
type ExchangeFaults struct {
	// Injector decides message fates; required.
	Injector *faults.Injector
	// Phase salts the decision streams so repeated exchanges (e.g. the
	// recovery round) draw independent outcomes.
	Phase uint64
	// ApplyCrashes enables the scenario's node crashes; the recovery round
	// runs with it off, over the survivor set.
	ApplyCrashes bool
}

// ExchangePieces simulates transferring the pieces under the fault model.
// Pieces are processed in slice order, which — together with the hash-based
// injector — makes the result independent of wall-clock and scheduling.
func (f *Fabric) ExchangePieces(pieces []Piece, ef ExchangeFaults) (*ExchangeStats, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if ef.Injector == nil {
		return nil, fmt.Errorf("rdma: ExchangePieces requires a fault injector")
	}
	inj := ef.Injector
	timeoutUS := f.timeoutUS()

	for i, p := range pieces {
		if p.Src < 0 || p.Src >= f.Nodes || p.Dst < 0 || p.Dst >= f.Nodes {
			return nil, fmt.Errorf("rdma: piece %d links node %d to %d on a %d-node fabric", i, p.Src, p.Dst, f.Nodes)
		}
		if p.Bytes < 0 {
			return nil, fmt.Errorf("rdma: piece %d has negative size %d", i, p.Bytes)
		}
	}

	// Crash cutoffs, measured in first-try messages through the node's
	// ports (in either direction), so AfterFraction 0.5 fails the node
	// halfway through its share of the exchange.
	cut := make([]int64, f.Nodes)
	down := make([]bool, f.Nodes)
	progress := make([]int64, f.Nodes)
	for n := 0; n < f.Nodes; n++ {
		cut[n] = math.MaxInt64
	}
	if ef.ApplyCrashes {
		total := make([]int64, f.Nodes)
		for _, p := range pieces {
			if p.Src == p.Dst {
				continue
			}
			msgs := (p.Bytes + int64(f.MessageBytes) - 1) / int64(f.MessageBytes)
			total[p.Src] += msgs
			total[p.Dst] += msgs
		}
		for _, n := range inj.CrashedNodes() {
			if n >= f.Nodes {
				return nil, fmt.Errorf("rdma: crash of node %d on a %d-node fabric", n, f.Nodes)
			}
			frac, _ := inj.CrashFraction(n)
			cut[n] = int64(frac * float64(total[n]))
			if cut[n] == 0 {
				down[n] = true
			}
		}
	}

	stats := &ExchangeStats{Outcomes: make([]PieceOutcome, len(pieces))}
	outUS := make([]float64, f.Nodes)
	inUS := make([]float64, f.Nodes)
	deliveredTo := make([]int64, f.Nodes)
	failed := map[int]bool{}
	// Once one piece on a flow exhausts its budget against a dead peer,
	// the sender's connection is in an error state: later pieces on the
	// flow fail immediately instead of re-burning the timeout budget.
	deadFlow := map[[2]int]bool{}

	for pi, p := range pieces {
		if p.Src == p.Dst || p.Bytes == 0 {
			stats.Outcomes[pi] = PieceDelivered
			continue
		}
		msgs := int((p.Bytes + int64(f.MessageBytes) - 1) / int64(f.MessageBytes))
		factor := inj.LinkFactor(p.Src, p.Dst)
		bw := f.LinkGBps * 1e9 * factor

		outcome := PieceDelivered
		// Round 0 sends every message; when the receiver's checksum
		// verification fails, later rounds selectively resend only the
		// corrupted messages (per-block CRCs localize the damage), so the
		// re-request converges even for pieces spanning many messages.
		pending := make([]int, msgs)
		for m := range pending {
			pending[m] = m
		}
	rounds:
		for round := 0; ; round++ {
			var bad []int
			for _, m := range pending {
				mb := int64(f.MessageBytes)
				if rem := p.Bytes - int64(m)*int64(f.MessageBytes); rem < mb {
					mb = rem
				}
				if down[p.Src] {
					outcome = PieceUnsent
					if m > 0 || round > 0 {
						// A partially sent piece is as lost as an unsent one.
						outcome = PieceFailed
					}
					break rounds
				}
				if down[p.Dst] {
					// Destination is dead. The first piece on this flow
					// burns its full budget on timeouts; afterwards the
					// connection is declared dead and later pieces fail
					// immediately.
					if !deadFlow[[2]int{p.Src, p.Dst}] {
						for a := 1; a < maxAttempts; a++ {
							outUS[p.Src] += timeoutUS + backoffUS(a, inj.Jitter(faults.MsgID{
								Phase: ef.Phase, Src: p.Src, Dst: p.Dst, Piece: p.ID, Round: round, Msg: m, Attempt: a,
							}))
							stats.Messages++
							stats.Retries++
						}
						outUS[p.Src] += timeoutUS
						stats.Messages++
						deadFlow[[2]int{p.Src, p.Dst}] = true
					}
					outcome = PieceFailed
					failed[p.Dst] = true
					break rounds
				}

				sent := false
				for attempt := 0; attempt < maxAttempts; attempt++ {
					id := faults.MsgID{Phase: ef.Phase, Src: p.Src, Dst: p.Dst,
						Piece: p.ID, Round: round, Msg: m, Attempt: attempt}
					stats.Messages++
					if round > 0 || attempt > 0 {
						stats.Retries++
						stats.RetransmittedBytes += mb
					}
					if attempt > 0 {
						outUS[p.Src] += backoffUS(attempt, inj.Jitter(id))
					}
					fate, delayUS := inj.MessageFate(id)
					switch fate {
					case faults.Drop:
						stats.Dropped++
						outUS[p.Src] += timeoutUS
						continue
					case faults.Corrupt:
						stats.Corrupted++
						bad = append(bad, m)
					}
					if delayUS > 0 {
						stats.Delayed++
					}
					wireUS := float64(mb)/bw*1e6 + f.LatencyUS + delayUS
					outUS[p.Src] += wireUS
					inUS[p.Dst] += float64(mb) / bw * 1e6
					deliveredTo[p.Dst] += mb
					sent = true
					break
				}
				if !sent {
					// Per-message budget exhausted on a live link.
					outcome = PieceFailed
					break rounds
				}
				// First-try messages advance the crash clocks.
				if round == 0 {
					for _, n := range []int{p.Src, p.Dst} {
						progress[n]++
						if progress[n] >= cut[n] {
							down[n] = true
						}
					}
				}
			}
			if len(bad) == 0 {
				break // checksum verifies: piece delivered
			}
			// Checksum failure at the receiver: NACK and re-request the
			// corrupted blocks, within the round budget.
			stats.CorruptPieces++
			outUS[p.Src] += f.LatencyUS
			if round+1 >= maxAttempts {
				outcome = PieceFailed
				break
			}
			pending = bad
		}
		stats.Outcomes[pi] = outcome
		if outcome != PieceDelivered && down[p.Dst] {
			failed[p.Dst] = true
		}
	}

	// Everything delivered to a node that ended the exchange crashed is
	// wasted: its partitions are re-pulled by the takeover nodes.
	for n := 0; n < f.Nodes; n++ {
		if down[n] {
			stats.WastedBytes += deliveredTo[n]
		}
	}

	// Scan node ids in order rather than ranging over the failed map: map
	// iteration order is randomized per run and FailedNodes feeds directly
	// into the caller's recovery bookkeeping.
	for n := 0; n < f.Nodes; n++ {
		if failed[n] {
			stats.FailedNodes = append(stats.FailedNodes, n)
		}
	}

	var worst float64
	for n := 0; n < f.Nodes; n++ {
		s := inj.StraggleFactor(n)
		if t := outUS[n] * s; t > worst {
			worst = t
		}
		if t := inUS[n] * s; t > worst {
			worst = t
		}
	}
	stats.Seconds = worst * 1e-6
	return stats, nil
}
