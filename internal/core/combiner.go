package core

import "fpgapart/internal/fpga"

// combiner is one write combiner module (Section 4.2, Figure 6): it gathers
// tuples of the same partition into banks of BRAM until a full 64-byte cache
// line is assembled, then emits the line into its output FIFO.
//
// The fill-rate BRAM has a 2-cycle read latency; Code 4's forwarding
// registers supply the in-flight fill rate whenever the current tuple hits
// the same partition as either of the previous two, which is exactly when
// the BRAM's reply would be stale. With forwarding the module accepts one
// tuple per cycle for any input pattern; the DisableForwarding ablation
// models the stall the hardware would otherwise need.
type combiner struct {
	banks int // tuple slots per cache line
	parts int

	// fill is the fill-rate BRAM, one slot count per partition. It belongs
	// to the run (reset): its size follows the fan-out. The bank BRAM's
	// contents are the placement side's (placer): a line leaves the
	// combiner as its partition and its number of valid slots.
	fill []uint8

	out *fpga.FIFO[outLine]

	// Forwarding registers (hash_1d, hash_2d of Code 4), stamped instead of
	// clocked: the partitions of the last two accepted tuples, most recent
	// first, and the cycle each was accepted in. A cycle that accepts nothing
	// costs nothing; step compares the stamps with the current cycle.
	last   [2]uint32
	lastAt [2]int64

	// Hazard stall state for the DisableForwarding ablation.
	stall  int
	served bool

	// Flush scan cursor.
	flushAddr int
}

func newCombiner(cfg Config, banks int) *combiner {
	cb := &combiner{
		banks: banks,
		parts: cfg.NumPartitions,
		out:   fpga.NewFIFO[outLine](cfg.OutFIFODepth),
	}
	cb.reset(nil)
	return cb
}

// reset is the circuit reset in front of a run: it loads the run's zeroed
// fill-rate BRAM and clears the control state the previous run left, which
// may have aborted on a PAD overflow mid-line and mid-stall. The stamps start
// outside the hazard window of any cycle ≥ 0.
func (cb *combiner) reset(fill []uint8) {
	cb.fill = fill
	cb.out.Reset()
	cb.last, cb.lastAt = [2]uint32{}, [2]int64{-3, -3}
	cb.stall, cb.served, cb.flushAddr = 0, false, 0
}

// step advances the combiner through clock cycle now, consuming at most one
// tuple from its non-empty input FIFO, and reports how many tuples it took
// and how many lines it put into its output FIFO (0 or 1 each). A cycle in
// which the input FIFO is empty changes nothing, so it needs no call.
//
//fpgavet:hotpath
func (cb *combiner) step(in *fpga.FIFO[tup], st *Stats, cfg *Config, now int64) (took, emitted int) {
	if cb.stall > 0 {
		cb.stall--
		st.StallsHazard++
		return 0, 0
	}
	if !cb.out.CanPush() {
		// Back-pressure from the write-back module; not a hazard stall.
		return 0, 0
	}
	h := in.Front().part
	// The fill rate read from the BRAM is stale if the same partition was
	// updated one or two cycles ago. The strawman datapath has no fill-rate
	// BRAM, hence no read hazard.
	hazard := !cfg.DisableWriteCombiner &&
		((h == cb.last[0] && now-cb.lastAt[0] <= 2) || (h == cb.last[1] && now-cb.lastAt[1] == 2))
	if hazard && cfg.DisableForwarding && !cb.served {
		// Without forwarding the issued BRAM read must be discarded and
		// reissued after the in-flight update lands: 2 dead cycles.
		cb.stall = 2
		cb.served = true
		return 0, 0
	}
	if hazard {
		// The fill rate comes from a forwarding register; the issued BRAM
		// read is discarded, so it does not occupy the read port.
		st.ForwardedHazards++
	} else if !cfg.DisableWriteCombiner {
		st.CombinerBRAMReads++ // fill-rate BRAM read
	}
	cb.served = false
	in.Drop()
	cb.last[1], cb.lastAt[1] = cb.last[0], cb.lastAt[0]
	cb.last[0], cb.lastAt[0] = h, now

	if cfg.DisableWriteCombiner {
		// Strawman datapath: no gathering; each tuple goes out on its own
		// and the write-back performs a read-modify-write of its line.
		*cb.out.Push() = outLine{part: h, valid: 1}
		return 1, 1
	}

	f := int(cb.fill[h])
	st.CombinerBRAMWrites += 2 // bank write + fill-rate update
	if f < cb.banks-1 {
		cb.fill[h] = uint8(f + 1)
		return 1, 0
	}
	cb.fill[h] = 0
	st.CombinerBRAMReads += int64(cb.banks) // bank reads for line assembly
	*cb.out.Push() = outLine{part: h, valid: uint8(cb.banks)}
	return 1, 1
}

// canFlush reports whether the end-of-run flush scan can advance this cycle:
// it is not done and not parked on a partial line behind its full output FIFO.
func (cb *combiner) canFlush() bool {
	return cb.flushAddr < cb.parts && (cb.fill[cb.flushAddr] == 0 || cb.out.CanPush())
}

// flushStep advances a flush scan that canFlush by one cycle: it inspects
// one partition address, emitting a padded partial line if the address holds
// leftover tuples, and reports how many lines it emitted (0 or 1).
//
//fpgavet:hotpath
func (cb *combiner) flushStep(st *Stats) (emitted int) {
	f := int(cb.fill[cb.flushAddr])
	st.CombinerBRAMReads++ // fill-rate scan read
	if f != 0 {
		cb.fill[cb.flushAddr] = 0
		st.CombinerBRAMWrites++          // fill-rate reset
		st.CombinerBRAMReads += int64(f) // bank reads for the partial line
		// A partial line: its other slots carry dummy keys.
		*cb.out.Push() = outLine{part: uint32(cb.flushAddr), valid: uint8(f)}
		emitted = 1
	}
	cb.flushAddr++
	return emitted
}
