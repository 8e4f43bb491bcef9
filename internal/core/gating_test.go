package core

import (
	"errors"
	"testing"

	"fpgapart/codec"
	"fpgapart/internal/fpga"
	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

// refCombiner is the reference for the stamped hazard window and the
// pre-pass flags: the write combiner's control path with the forwarding
// registers as two clocked delay stages, shifted in every cycle whether or
// not a tuple was accepted, and the fill-rate BRAM read and written by the
// accepted tuple itself — what combiner.step did before the stamps and the
// pre-pass. Its first-stage FIFO holds partitions. Only the datapath that
// the counters and FIFO lengths depend on is kept (fill rates, no bank
// contents).
type refCombiner struct {
	banks     int
	fill      []uint8
	out       *fpga.FIFO[outLine]
	last      [2]uint32
	lastValid [2]bool
	stall     int
	served    bool
}

func (cb *refCombiner) shiftHazard(h uint32, valid bool) {
	cb.last[1], cb.lastValid[1] = cb.last[0], cb.lastValid[0]
	cb.last[0], cb.lastValid[0] = h, valid
}

// step is one clock cycle, called every cycle.
func (cb *refCombiner) step(in *fpga.FIFO[uint32], st *Stats, cfg *Config) {
	if cb.stall > 0 {
		cb.stall--
		st.StallsHazard++
		cb.shiftHazard(0, false)
		return
	}
	if in.Empty() || !cb.out.CanPush() {
		cb.shiftHazard(0, false)
		return
	}
	h := *in.Front()
	hazard := (cb.lastValid[0] && h == cb.last[0]) || (cb.lastValid[1] && h == cb.last[1])
	if hazard && cfg.DisableForwarding && !cb.served {
		cb.stall = 2
		cb.served = true
		cb.shiftHazard(0, false)
		return
	}
	if hazard {
		st.ForwardedHazards++
	} else {
		st.CombinerBRAMReads++
	}
	cb.served = false
	in.Drop()
	st.CombinerBRAMWrites += 2
	if f := int(cb.fill[h]); f == cb.banks-1 {
		cb.fill[h] = 0
		st.CombinerBRAMReads += int64(cb.banks)
		cb.out.Push().part = h
	} else {
		cb.fill[h] = uint8(f + 1)
	}
	cb.shiftHazard(h, true)
}

// TestHazardWindowMatchesShiftedRegisters drives the combiner beside
// refCombiner through every pattern of eight cycles over the alphabet {a
// tuple for partition 0 arrives, one for partition 1 arrives, nothing
// arrives, the output FIFO is full}, forwarding on and off, plus a tail that
// lets the last stall run out. After every cycle — so every shorter pattern
// is covered as a prefix — the hazard, stall and BRAM counters and both FIFO
// lengths must agree. The combiner is fed as a run feeds it: each arriving
// tuple brings the flag byte the pre-pass's walk gave it, and the FIFO is
// the occupancy counter. It is clocked as partitionPass clocks it: not at
// all in a cycle in which its first-stage FIFO is empty.
func TestHazardWindowMatchesShiftedRegisters(t *testing.T) {
	const patternLen, symbols = 8, 4
	for _, noForwarding := range []bool{false, true} {
		// Without forwarding eight tuples of one partition take four cycles each.
		tail := map[bool]int{false: 4, true: 4 * patternLen}[noForwarding]
		// 32-byte tuples: two banks, so lines are emitted and fill rates wrap.
		cfg := Config{NumPartitions: 2, TupleWidth: 32, Format: PAD, OutFIFODepth: 2, DisableForwarding: noForwarding}.WithDefaults()
		for pattern := 0; pattern < 1<<(2*patternLen); pattern++ {
			// The run starts at cycle 0 with partition 0 first in half the
			// patterns: the reset stamps must not look like a recent accept.
			cb, st := newTestCombiner(cfg, 2), &Stats{}
			refOut, refIn := fpga.MakeFIFO(make([]outLine, cfg.OutFIFODepth)), fpga.MakeFIFO(make([]uint32, cfg.Stage1FIFODepth))
			ref, refSt := &refCombiner{banks: 2, fill: make([]uint8, 2), out: &refOut}, &Stats{}
			for cycle := 0; cycle < patternLen+tail; cycle++ {
				sym := symbols - 2 // the tail: nothing arrives, the output drains
				if cycle < patternLen {
					sym = pattern >> (2 * cycle) % symbols
				}
				for _, o := range []*fpga.FIFO[outLine]{&cb.out, ref.out} {
					if sym == symbols-1 { // back-pressure: the write-back takes nothing
						for o.CanPush() {
							o.Push()
						}
					} else {
						for !o.Empty() {
							o.Drop()
						}
					}
				}
				if sym < 2 {
					push(cb, uint32(sym))
					*refIn.Push() = uint32(sym)
				}
				stepAt(cb, st, &cfg, int64(cycle))
				ref.step(&refIn, refSt, &cfg)
				if *st != *refSt || cb.queued != refIn.Len() || cb.out.Len() != ref.out.Len() {
					t.Fatalf("forwarding off=%v, pattern %#x, cycle %d: stamped window diverges from the shifted registers\n stamped: %+v in=%d out=%d\n shifted: %+v in=%d out=%d",
						noForwarding, pattern, cycle, *st, cb.queued, cb.out.Len(), *refSt, refIn.Len(), ref.out.Len())
				}
			}
			if cb.queued != 0 {
				t.Fatalf("forwarding off=%v, pattern %#x: %d tuples left after the tail", noForwarding, pattern, cb.queued)
			}
		}
	}
}

// TestOccupancyCountersMatchFIFOs walks every lock case, an early and a
// mid-pass PAD abort and the run after each abort cycle by cycle: before the
// first cycle both occupancy counters are zero and every FIFO is empty
// (whatever the aborted run left in flight), and after every cycle of all
// three passes each counter equals the sum of the FIFO lengths it stands
// for. A first-stage FIFO is its lane's occupancy counter, so the walk
// rebuilds its length from outside: the lane's tuples among those issued
// five cycles ago, which have left the hash pipelines, minus those its
// combiner took. The walk also holds the passes to one Stats.Cycles per
// loop iteration.
func TestOccupancyCountersMatchFIFOs(t *testing.T) {
	equal := func(t *testing.T) *workload.Relation {
		t.Helper()
		keys := make([]uint32, lockTuples)
		for i := range keys {
			keys[i] = 7
		}
		rel, err := workload.FromKeys(keys, 8)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	cases := lockCases()
	var uniform, midAbort lockCase
	for _, lc := range cases {
		switch lc.name {
		case "pad_rid":
			uniform = lc
		case "zipf_pad_fallback":
			midAbort = lc
		}
	}
	earlyAbort := uniform
	earlyAbort.name, earlyAbort.rel = "equal_pad_abort", equal
	cases = append(cases, earlyAbort)

	for _, lc := range cases {
		cfg := lc.cfg
		cfg.Trace = simtrace.NewSession()
		plat := platform.XeonFPGA()
		if lc.raw {
			plat = platform.RawFPGA()
		}
		c, err := NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone)
		if err != nil {
			t.Fatalf("%s: %v", lc.name, err)
		}
		walk := func(what string, rel func(*testing.T) *workload.Relation) Stats {
			var (
				comp    *codec.RLEColumn
				input   *workload.Relation
				visits  int64
				maxQ    int
				maxL    int
				started bool
				issued  []int64 // TuplesIn after every cycle from the partition pass on
			)
			if lc.keys != nil {
				comp = codec.CompressRLE(lc.keys())
			} else {
				input = rel(t)
			}
			st, err := c.walk(input, comp, func(r *run) {
				var delivered int64
				if r.out != nil && (r.cfg.Format == PAD || r.stats.HistogramCycles > 0) { // the partition pass is on
					issued = append(issued, r.stats.TuplesIn)
					if k := len(issued) - 1 - hashPipelineDepth; k >= 0 {
						delivered = issued[k]
					}
				}
				queued, lines, lanes := 0, 0, int64(r.lanes)
				for i, cb := range r.comb {
					fifo := 0
					if in := delivered - int64(i); in > 0 {
						fifo = int((in+lanes-1)/lanes - (cb.next-int64(i))/lanes)
					}
					if fifo != cb.queued {
						t.Fatalf("%s, %s, cycle %d: lane %d counts %d tuples queued, its FIFO holds %d", lc.name, what, r.stats.Cycles, i, cb.queued, fifo)
					}
					queued += fifo
					lines += cb.out.Len()
				}
				if queued != r.queued || lines != r.lines {
					t.Fatalf("%s, %s, cycle %d: counters say %d tuples queued and %d lines, the FIFOs hold %d and %d",
						lc.name, what, r.stats.Cycles, r.queued, r.lines, queued, lines)
				}
				if !started {
					started = true
					if queued != 0 || lines != 0 || !r.final.Empty() || !r.pipe.Drained() {
						t.Fatalf("%s, %s: the run starts with %d tuples queued, %d lines, final FIFO %d", lc.name, what, queued, lines, r.final.Len())
					}
					return
				}
				visits++
				maxQ, maxL = max(maxQ, queued), max(maxL, lines)
			})
			if err != nil && !errors.Is(err, ErrPartitionOverflow) {
				t.Fatalf("%s, %s: %v", lc.name, what, err)
			}
			if visits+st.PrefixSumCycles != st.Cycles {
				t.Errorf("%s, %s: %d loop iterations and %d prefix-sum cycles, Stats.Cycles %d", lc.name, what, visits, st.PrefixSumCycles, st.Cycles)
			}
			if maxQ == 0 || maxL == 0 {
				t.Errorf("%s, %s: the walk never saw a queued tuple (max %d) or a line (max %d)", lc.name, what, maxQ, maxL)
			}
			return st
		}
		st := walk("first run", lc.rel)
		if aborts := lc.name == earlyAbort.name || lc.name == midAbort.name; aborts != st.Overflowed {
			t.Errorf("%s: overflowed=%v, want %v", lc.name, st.Overflowed, aborts)
		} else if aborts {
			// The abort left tuples in the pipeline, the FIFOs and the banks.
			if after := walk("run after the abort", uniform.rel); after.Overflowed {
				t.Errorf("%s: the uniform run after the abort overflowed", lc.name)
			}
		}
	}
}
