package core

import (
	"fpgapart/internal/fpga"
	"fpgapart/internal/hashutil"
)

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
//
// Which slot a tuple takes, which tuple completes a line and which tuple
// repeats a recent partition follows from the lane's input order alone, so
// the pre-pass decides it (walk) and leaves a flag byte per tuple; step only
// decides when, from the flags and the accept stamps.
type combiner struct {
	banks int // tuple slots per cache line
	parts int
	radix uint
	hash  bool

	// fill is the fill-rate BRAM, one slot count per partition: walk moves
	// it through the run's input ahead of the clock, which leaves the
	// end-of-pass image that the flush scans and the placement side reads.
	// It belongs to the run (reset): its size follows the fan-out. The bank
	// BRAM's contents are the placement side's (placer): a line leaves the
	// combiner as its partition and its number of valid slots.
	fill []uint8
	// prev is the walk's view of the forwarding registers: the partitions
	// of the lane's last two tuples, most recent first.
	prev [2]uint32

	// The first-stage FIFO, as its occupancy: the lane's tuples that left
	// the hash pipelines and wait here. The next is tuple next of the run;
	// its flag is flags[next], and the lane's tuples are stride apart.
	queued       int
	next, stride int64
	flags        []uint8
	src          source // the input, for the partition of a line's last tuple

	out *fpga.FIFO[outLine]

	// Forwarding registers (hash_1d, hash_2d of Code 4), stamped instead of
	// clocked: the cycles in which the lane's last two tuples were accepted,
	// most recent first. A cycle that accepts nothing costs nothing; step
	// compares the stamps with the current cycle.
	lastAt [2]int64

	// Hazard stall state for the DisableForwarding ablation.
	stall  int
	served bool

	// Flush scan cursor.
	flushAddr int

	// The lane's port and hazard counters, folded into Stats once per pass.
	reads, writes, forwarded, stalls int64
}

func newCombiner(cfg Config, banks int) *combiner {
	cb := &combiner{
		banks: banks,
		parts: cfg.NumPartitions,
		radix: cfg.RadixBits(),
		hash:  cfg.Hash,
		out:   fpga.NewFIFO[outLine](cfg.OutFIFODepth),
	}
	cb.reset(nil, nil, source{}, 0, 1)
	return cb
}

// reset is the circuit reset in front of a run: it loads the run's zeroed
// fill-rate BRAM, its flags and input, puts the lane's cursor on its first
// tuple and clears the control state the previous run left, which may have
// aborted on a PAD overflow mid-line and mid-stall. The stamps start outside
// the hazard window of any cycle ≥ 0.
func (cb *combiner) reset(fill, flags []uint8, src source, first, stride int64) {
	cb.fill, cb.flags, cb.src = fill, flags, src
	cb.prev = [2]uint32{noPart, noPart}
	cb.queued, cb.next, cb.stride = 0, first, stride
	cb.out.Reset()
	cb.lastAt = [2]int64{-3, -3}
	cb.stall, cb.served, cb.flushAddr = 0, false, 0
	cb.reads, cb.writes, cb.forwarded, cb.stalls = 0, 0, 0, 0
}

// walk runs the fill-rate logic ahead of the clock over the lane's tuples
// of partitions parts[0], parts[stride], …: it writes each one's flag byte
// to the same index of flags and moves the slot counts and the partition
// history on.
//
//fpgavet:hotpath
func (cb *combiner) walk(parts []uint32, flags []uint8, stride int) {
	// banks is a power of two: the slot count reaches it, and its bit is
	// set, exactly when a tuple fills its line; done moves that bit to
	// flagDone.
	fill, banks := cb.fill, uint8(cb.banks)
	done := flagDone / banks
	flags = flags[:len(parts)]
	p0, p1 := cb.prev[0], cb.prev[1]
	for i := 0; i < len(parts); i += stride {
		p := parts[i]
		f := fill[p]
		next := f + 1
		fill[p] = next &^ banks
		flag := f | next&banks*done
		if p == p0 {
			flag |= flagPrev
		}
		if p == p1 {
			flag |= flagPrev2
		}
		p1, p0 = p0, p
		flags[i] = flag
	}
	cb.prev = [2]uint32{p0, p1}
}

// step advances the combiner through clock cycle now, consuming at most one
// tuple from its non-empty first-stage FIFO, and reports how many tuples it
// took and how many lines it put into its output FIFO (0 or 1 each). A
// cycle in which the FIFO is empty changes nothing, so it needs no call.
//
//fpgavet:hotpath
func (cb *combiner) step(cfg *Config, now int64) (took, emitted int) {
	if cb.stall > 0 {
		cb.stall--
		cb.stalls++
		return 0, 0
	}
	if !cb.out.CanPush() {
		// Back-pressure from the write-back module; not a hazard stall.
		return 0, 0
	}
	j := cb.next
	f := cb.flags[j]
	// The fill rate read from the BRAM is stale if the same partition was
	// updated one or two cycles ago. The strawman datapath has no fill-rate
	// BRAM, hence no read hazard (and no flags).
	hazard := (f&flagPrev != 0 && now-cb.lastAt[0] <= 2) || (f&flagPrev2 != 0 && now-cb.lastAt[1] == 2)
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
		cb.forwarded++
	} else if !cfg.DisableWriteCombiner {
		cb.reads++ // fill-rate BRAM read
	}
	cb.served = false
	cb.queued--
	cb.next += cb.stride
	cb.lastAt[1], cb.lastAt[0] = cb.lastAt[0], now

	if cfg.DisableWriteCombiner {
		// Strawman datapath: no gathering; each tuple goes out on its own
		// and the write-back performs a read-modify-write of its line.
		*cb.out.Push() = outLine{part: cb.partition(j), valid: 1}
		return 1, 1
	}
	cb.writes += 2 // bank write + fill-rate update
	if f&flagDone == 0 {
		return 1, 0
	}
	cb.reads += int64(cb.banks) // bank reads for line assembly
	*cb.out.Push() = outLine{part: cb.partition(j), valid: uint8(cb.banks)}
	return 1, 1
}

// partition hashes tuple j's key: the partition of the line it ends.
func (cb *combiner) partition(j int64) uint32 {
	return hashutil.PartitionIndex32(cb.src.key(j), cb.radix, cb.hash)
}

// canFlush reports whether the end-of-run flush scan can advance this cycle:
// it is not done and not parked on a partial line behind its full output FIFO.
func (cb *combiner) canFlush() bool {
	return cb.flushAddr < cb.parts && (cb.fill[cb.flushAddr] == 0 || cb.out.CanPush())
}

// flushStep advances a flush scan that canFlush by one cycle: it inspects
// one partition address, emitting a padded partial line if the address holds
// leftover tuples, and reports how many lines it emitted (0 or 1). The
// fill-rate reset it counts is not applied: the image stays read-only for
// the placement side, and nothing reads an address twice.
//
//fpgavet:hotpath
func (cb *combiner) flushStep() (emitted int) {
	f := int(cb.fill[cb.flushAddr])
	cb.reads++ // fill-rate scan read
	if f != 0 {
		cb.writes++          // fill-rate reset
		cb.reads += int64(f) // bank reads for the partial line
		// A partial line: its other slots carry dummy keys.
		*cb.out.Push() = outLine{part: uint32(cb.flushAddr), valid: uint8(f)}
		emitted = 1
	}
	cb.flushAddr++
	return emitted
}

// fold adds the lane's port and hazard counters to st and clears them.
func (cb *combiner) fold(st *Stats) {
	st.CombinerBRAMReads += cb.reads
	st.CombinerBRAMWrites += cb.writes
	st.ForwardedHazards += cb.forwarded
	st.StallsHazard += cb.stalls
	cb.reads, cb.writes, cb.forwarded, cb.stalls = 0, 0, 0, 0
}
