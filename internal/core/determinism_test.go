package core

import (
	"sort"
	"testing"

	"fpgapart/platform"
	"fpgapart/workload"
)

// collectMultiset gathers all (key, payload) pairs per partition, sorted —
// the timing-independent view of an Output.
func collectMultiset(out *Output) [][]uint64 {
	res := make([][]uint64, out.NumPartitions)
	for p := 0; p < out.NumPartitions; p++ {
		var v []uint64
		out.Partition(p, func(k, pay uint32, _ []uint64) {
			v = append(v, uint64(k)<<32|uint64(pay))
		})
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		res[p] = v
	}
	return res
}

// TestFunctionalDeterminismAcrossTiming: the partitioned result (as a
// per-partition multiset) must not depend on link bandwidth, FIFO depths or
// stall behaviour — timing changes scheduling, never data.
func TestFunctionalDeterminismAcrossTiming(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 25000, 41)
	configs := []struct {
		name  string
		curve platform.BandwidthCurve
		cfg   Config
	}{
		{"fast", testCurve(),
			Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}},
		{"slow", platform.BandwidthCurve{Points: []float64{0.8, 0.8}},
			Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}},
		{"deepFIFOs", testCurve(),
			Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID,
				Stage1FIFODepth: 256, OutFIFODepth: 64}},
		{"noForwarding", testCurve(),
			Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID,
				DisableForwarding: true}},
		{"interfered", platform.XeonFPGA().FPGAInterfered,
			Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}},
	}
	var ref [][]uint64
	for _, c := range configs {
		circuit, err := NewCircuit(c.cfg, 200e6, c.curve)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out, _, err := circuit.Partition(rel.Clone())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := collectMultiset(out)
		if ref == nil {
			ref = got
			continue
		}
		for p := range ref {
			if len(got[p]) != len(ref[p]) {
				t.Fatalf("%s: partition %d has %d tuples, reference %d", c.name, p, len(got[p]), len(ref[p]))
			}
			for i := range ref[p] {
				if got[p][i] != ref[p][i] {
					t.Fatalf("%s: partition %d differs from reference at %d", c.name, p, i)
				}
			}
		}
	}
}

// TestSlowLinkOnlyChangesCycles: a slower link costs cycles proportionally
// but moves identical traffic.
func TestSlowLinkOnlyChangesCycles(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 50000, 43)
	cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: true, Format: PAD, Layout: RID, PadFraction: 0.5}
	run := func(gbps float64) *Stats {
		c, err := NewCircuit(cfg, 200e6, platform.BandwidthCurve{Points: []float64{gbps, gbps}})
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := c.Partition(rel.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	fast := run(25.6)
	slow := run(3.2)
	if fast.LinesRead != slow.LinesRead || fast.LinesWritten != slow.LinesWritten {
		t.Errorf("traffic differs: %d/%d vs %d/%d lines",
			fast.LinesRead, fast.LinesWritten, slow.LinesRead, slow.LinesWritten)
	}
	ratio := float64(slow.Cycles) / float64(fast.Cycles)
	if ratio < 4 || ratio > 12 {
		t.Errorf("8x slower link changed cycles by %.1fx, want roughly proportional", ratio)
	}
}

// TestStallAccountingConsistency: on a link slower than the circuit, the
// input stage must report back-pressure stalls, and cycle counts must at
// least cover the pure transfer time.
func TestStallAccountingConsistency(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 50000, 47)
	cfg := Config{NumPartitions: 64, TupleWidth: 8, Hash: true, Format: PAD, Layout: RID, PadFraction: 0.5}
	c, err := NewCircuit(cfg, 200e6, platform.BandwidthCurve{Points: []float64{3.2, 3.2}})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StallsBackpressure == 0 {
		t.Error("no back-pressure stalls on a starved link")
	}
	// 3.2 GB/s at 200 MHz = 16 bytes/cycle; moving (reads+writes)·64 bytes
	// needs at least that many cycles.
	minCycles := (stats.LinesRead + stats.LinesWritten) * 64 / 16
	if stats.Cycles < minCycles {
		t.Errorf("cycles %d below the transfer bound %d", stats.Cycles, minCycles)
	}
}

// TestCombinerUnitFillAndEmit drives one write combiner directly through
// its fill-assemble-emit cycle.
func TestCombinerUnitFillAndEmit(t *testing.T) {
	cfg := Config{NumPartitions: 4, TupleWidth: 8, Format: PAD, Layout: RID}.WithDefaults()
	cb := newTestCombiner(cfg, 8)
	// Seven tuples to partition 2: no line yet.
	for i := 0; i < 7; i++ {
		push(cb, 2)
	}
	for i := 0; i < 7; i++ {
		cb.step(&cfg, int64(i))
	}
	if !cb.out.Empty() {
		t.Fatal("line emitted before eight tuples arrived")
	}
	if cb.fill[2] != 7 {
		t.Fatalf("fill[2] = %d, want 7", cb.fill[2])
	}
	// Eighth completes the line.
	push(cb, 2)
	cb.step(&cfg, 7)
	if cb.out.Len() != 1 {
		t.Fatal("no line after eighth tuple")
	}
	l := cb.out.Front()
	cb.out.Drop()
	if l.part != 2 || l.valid != 8 {
		t.Fatalf("line: part=%d valid=%d", l.part, l.valid)
	}
	if cb.fill[2] != 0 {
		t.Fatal("fill not reset after emit")
	}
}

// TestCombinerUnitFlushPadsWithDummies checks flushStep's dummy padding.
func TestCombinerUnitFlushPadsWithDummies(t *testing.T) {
	cfg := Config{NumPartitions: 4, TupleWidth: 8, Format: PAD, Layout: RID}.WithDefaults()
	cb := newTestCombiner(cfg, 8)
	stats := &Stats{}
	push(cb, 3)
	cb.step(&cfg, 0)
	// Scan all four addresses.
	for !flushStepDone(cb, stats) {
	}
	if cb.out.Len() != 1 {
		t.Fatalf("flush emitted %d lines, want 1", cb.out.Len())
	}
	l := cb.out.Front()
	cb.out.Drop()
	if l.part != 3 || l.valid != 1 {
		t.Fatalf("flushed line: part=%d valid=%d", l.part, l.valid)
	}
	// Further flush steps stay done and emit nothing.
	if !flushStepDone(cb, stats) || !cb.out.Empty() {
		t.Error("flush not idempotent")
	}
}

// TestCombinerBackpressureHoldsTuple: with a full output FIFO the combiner
// must not consume input.
func TestCombinerBackpressureHoldsTuple(t *testing.T) {
	cfg := Config{NumPartitions: 4, TupleWidth: 8, Format: PAD, Layout: RID, OutFIFODepth: 2}.WithDefaults()
	cb := newTestCombiner(cfg, 1) // 64-byte tuples, 1 bank: every tuple emits a line
	for i := 0; i < 4; i++ {
		push(cb, 1)
	}
	for i := 0; i < 10; i++ {
		cb.step(&cfg, int64(i))
	}
	if cb.out.Len() != 2 {
		t.Fatalf("out FIFO holds %d lines, want its capacity 2", cb.out.Len())
	}
	if cb.queued != 2 {
		t.Fatalf("input FIFO drained to %d under back-pressure, want 2 held", cb.queued)
	}
}

// newTestCombiner is a combiner reset as a run would, with a BRAM of its own
// and a one-lane input that push extends.
func newTestCombiner(cfg Config, banks int) *combiner {
	cb := newCombiner(cfg, banks)
	resetTestCombiner(cb, cfg)
	return cb
}

// resetTestCombiner resets cb as a run would, onto a BRAM and an empty
// one-lane input of its own.
func resetTestCombiner(cb *combiner, cfg Config) {
	cb.reset(make([]uint8, cfg.NumPartitions), nil, source{rel: &workload.Relation{Layout: workload.ColumnLayout}}, 0, 1)
}

// push is a tuple of partition part arriving in cb's first-stage FIFO, with
// the flag the pre-pass's walk gives it. Its key is its partition, so a
// radix circuit's combiner finds the partition again when the tuple ends a
// line.
func push(cb *combiner, part uint32) {
	cb.src.rel.Keys = append(cb.src.rel.Keys, part)
	cb.flags = append(cb.flags, 0)
	cb.walk([]uint32{part}, cb.flags[len(cb.flags)-1:], 1)
	cb.queued++
}

// flushStepDone clocks cb's flush scan one cycle as flushPass does — a scan
// that is done or parked behind its full output FIFO is not called — folds
// its counters into st and reports whether the scan has finished.
func flushStepDone(cb *combiner, st *Stats) bool {
	if cb.canFlush() {
		cb.flushStep()
	}
	cb.fold(st)
	return cb.flushAddr >= cb.parts
}

// stepAt clocks cb through cycle now as partitionPass does — a combiner
// whose first-stage FIFO is empty is not called — and folds its counters
// into st.
func stepAt(cb *combiner, st *Stats, cfg *Config, now int64) {
	if cb.queued > 0 {
		cb.step(cfg, now)
	}
	cb.fold(st)
}
