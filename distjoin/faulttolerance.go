// Fault-tolerant exchange for the distributed join: piece construction,
// end-to-end checksum verification, and graceful degradation after node
// crashes.
//
// Fault model (see DESIGN.md §8): nodes are fail-stop, but — as in the
// one-sided RDMA designs the paper builds on (Barthels et al.) — a crashed
// node's registered memory remains remotely readable, so survivors can
// re-pull its partition pieces with one-sided reads. Partition ownership of
// a crashed node is rehashed deterministically onto the survivor set, which
// keeps the degraded join's Matches and Checksum identical to the
// fault-free run: every global partition is still joined exactly once.
package distjoin

import (
	"fmt"

	"fpgapart/internal/faults"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/rdma"
	"fpgapart/partition"
)

// exchangeOutcome aggregates the exchange phase for join().
type exchangeOutcome struct {
	seconds       float64
	payloadBytes  int64 // one clean copy of every off-node piece
	resentBytes   int64 // everything beyond that (retries, waste, recovery)
	retries       int64
	corruptPieces int64
	failedNodes   []int
	degraded      bool
	// ownerOf maps each global partition to the node that joins it (the
	// static owner, or its takeover after a crash).
	ownerOf []int
}

// pieceBytes is the physical size of node src's piece of global partition
// gp: both relations' addressable slots (including dummy padding for
// FPGA-written partitions) at 8 bytes each.
func pieceBytes(r, s *partition.Result, gp int) int64 {
	return int64(r.SlotCount(gp)+s.SlotCount(gp)) * 8
}

// pieceChecksum is the end-to-end checksum the receiver verifies after
// reassembling a piece, built from the per-partition checksums of both
// relations' pieces (partition.Result.PartitionChecksum).
func pieceChecksum(r, s *partition.Result, gp int) uint64 {
	return uint64(r.PartitionChecksum(gp))<<32 | uint64(s.PartitionChecksum(gp))
}

// runExchange moves every off-node piece across the fabric under the
// injector's scenario, which may inject nothing: with end-to-end checksum
// verification and, after node crashes, a recovery round that re-pulls the
// crashed nodes' partitions onto the survivors.
func runExchange(rParts, sParts []*partition.Result, opts Options, inj *faults.Injector, global int) (*exchangeOutcome, error) {
	nodes := opts.Nodes
	ex := &exchangeOutcome{ownerOf: make([]int, global)}
	for gp := 0; gp < global; gp++ {
		ex.ownerOf[gp] = gp & (nodes - 1)
	}
	crashed := map[int]bool{}
	for _, n := range inj.CrashedNodes() {
		crashed[n] = true
	}

	// Build the off-node piece list in deterministic (src, gp) order, with
	// sender-side checksums recorded before anything leaves the node.
	var pieces []rdma.Piece
	sentSums := map[[2]int]uint64{}
	for src := 0; src < nodes; src++ {
		for gp := 0; gp < global; gp++ {
			dst := ex.ownerOf[gp]
			bytes := pieceBytes(rParts[src], sParts[src], gp)
			if dst == src || bytes == 0 {
				continue
			}
			pieces = append(pieces, rdma.Piece{Src: src, Dst: dst, Bytes: bytes, ID: uint64(gp)})
			sentSums[[2]int{src, gp}] = pieceChecksum(rParts[src], sParts[src], gp)
			ex.payloadBytes += bytes
		}
	}

	main, err := opts.Fabric.Exchange(pieces, rdma.ExchangeFaults{Injector: inj, ApplyCrashes: true})
	if err != nil {
		return nil, err
	}
	ex.seconds += main.Seconds
	ex.retries += main.Retries
	ex.corruptPieces += main.CorruptPieces
	ex.resentBytes += main.RetransmittedBytes + main.WastedBytes

	// Every piece that failed on a healthy link is a hard error: the retry
	// budget is sized so this only happens on pathological scenarios, and
	// silently losing a piece would corrupt the join.
	for i, oc := range main.Outcomes {
		p := pieces[i]
		if oc != rdma.PieceDelivered && !crashed[p.Dst] && !crashed[p.Src] {
			return nil, fmt.Errorf("distjoin: retry budget exhausted for piece %d (node %d → %d)", p.ID, p.Src, p.Dst)
		}
	}
	// Receiver-side verification of delivered pieces against the sender
	// checksums (corrupt copies were already re-requested in-flight; a
	// mismatch here would mean corrupt data survived the retry protocol).
	for i, oc := range main.Outcomes {
		if oc != rdma.PieceDelivered {
			continue
		}
		p := pieces[i]
		got := pieceChecksum(rParts[p.Src], sParts[p.Src], int(p.ID))
		if got != sentSums[[2]int{p.Src, int(p.ID)}] {
			return nil, fmt.Errorf("distjoin: piece %d (node %d → %d) failed checksum verification after retries", p.ID, p.Src, p.Dst)
		}
	}

	if len(crashed) == 0 {
		return ex, nil
	}

	// Graceful degradation: rehash the crashed nodes' partitions onto the
	// survivor set and re-pull the affected pieces. Survivors also re-pull
	// every piece sourced at a crashed node — delivery of those is
	// uncertain at the crash point, and one-sided reads are idempotent.
	ex.degraded = true
	ex.failedNodes = inj.CrashedNodes()
	var survivors []int
	for n := 0; n < nodes; n++ {
		if !crashed[n] {
			survivors = append(survivors, n)
		}
	}
	for gp := 0; gp < global; gp++ {
		if crashed[ex.ownerOf[gp]] {
			ex.ownerOf[gp] = survivors[int(hashutil.Murmur32Finalizer(uint32(gp)))%len(survivors)]
		}
	}

	var recPieces []rdma.Piece
	for src := 0; src < nodes; src++ {
		for gp := 0; gp < global; gp++ {
			staticOwner := gp & (nodes - 1)
			dst := ex.ownerOf[gp]
			needsRepull := crashed[staticOwner] || crashed[src]
			if !needsRepull || dst == src {
				continue
			}
			bytes := pieceBytes(rParts[src], sParts[src], gp)
			if bytes == 0 {
				continue
			}
			recPieces = append(recPieces, rdma.Piece{Src: src, Dst: dst, Bytes: bytes, ID: uint64(gp)})
		}
	}
	rec, err := opts.Fabric.Exchange(recPieces, rdma.ExchangeFaults{Injector: inj, Phase: 1})
	if err != nil {
		return nil, err
	}
	ex.seconds += rec.Seconds
	ex.retries += rec.Retries
	ex.corruptPieces += rec.CorruptPieces
	for _, p := range recPieces {
		ex.resentBytes += p.Bytes
	}
	ex.resentBytes += rec.RetransmittedBytes
	for i, oc := range rec.Outcomes {
		if oc != rdma.PieceDelivered {
			p := recPieces[i]
			return nil, fmt.Errorf("distjoin: recovery re-pull of piece %d (node %d → %d) failed", p.ID, p.Src, p.Dst)
		}
	}
	for i, oc := range rec.Outcomes {
		if oc != rdma.PieceDelivered {
			continue
		}
		p := recPieces[i]
		got := pieceChecksum(rParts[p.Src], sParts[p.Src], int(p.ID))
		want, ok := sentSums[[2]int{p.Src, int(p.ID)}]
		if ok && got != want {
			return nil, fmt.Errorf("distjoin: recovery piece %d (node %d → %d) failed checksum verification", p.ID, p.Src, p.Dst)
		}
	}
	return ex, nil
}
