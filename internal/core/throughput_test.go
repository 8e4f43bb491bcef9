package core

import (
	"testing"

	"fpgapart/platform"
	"fpgapart/workload"
)

// TestOneCacheLinePerCycle verifies the headline hardware property: with an
// unconstrained link, the partitioning pass consumes one cache line per
// clock cycle — cycles ≈ lines + pipeline latency + flush.
func TestOneCacheLinePerCycle(t *testing.T) {
	g := workload.NewGenerator(8)
	const n = 1 << 19
	rel, err := g.Relation(workload.Random, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	// A link fast enough to never back-pressure: 51.2 GB/s = 1 read and 1
	// write line per cycle with margin.
	curve := platform.BandwidthCurve{Points: []float64{51.2, 51.2}}
	cfg := Config{NumPartitions: 1024, TupleWidth: 8, Hash: true, Format: PAD, Layout: RID, PadFraction: 0.5}
	c, err := NewCircuit(cfg, 200e6, curve)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	lines := int64(n / 8)
	// Allow latency, flush and scheduling slack of a few thousand cycles.
	slack := int64(8 * 1024 * 2)
	if stats.PartitionCycles > lines+slack/2 {
		t.Errorf("partition pass took %d cycles for %d lines — not one line per cycle", stats.PartitionCycles, lines)
	}
	if stats.Cycles > lines+slack {
		t.Errorf("total %d cycles for %d lines + flush", stats.Cycles, lines)
	}
}

// TestTupleWidthThroughputShape reproduces the Figure 8 shape: tuples/s
// halves with each doubling of tuple width while GB/s processed stays flat.
func TestTupleWidthThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput calibration is slow")
	}
	curve := platform.XeonFPGA().FPGAAlone
	g := workload.NewGenerator(12)
	var tput [4]float64
	var gbps [4]float64
	widths := []int{8, 16, 32, 64}
	for i, w := range widths {
		n := (8 << 20) / w * 2 // constant bytes across widths
		rel, err := g.Relation(workload.Random, w, n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{NumPartitions: 8192, TupleWidth: w, Hash: true, Format: HIST, Layout: RID}
		c, err := NewCircuit(cfg, 200e6, curve)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := c.Partition(rel)
		if err != nil {
			t.Fatal(err)
		}
		tput[i] = stats.ThroughputTuplesPerSec()
		gbps[i] = stats.DataProcessedGBps()
	}
	for i := 1; i < 4; i++ {
		ratio := tput[i-1] / tput[i]
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("throughput ratio %dB/%dB = %.2f, want ~2", widths[i-1], widths[i], ratio)
		}
		if gbps[i] < gbps[0]*0.8 || gbps[i] > gbps[0]*1.25 {
			t.Errorf("GB/s at %dB = %.2f, want ≈ %.2f (flat)", widths[i], gbps[i], gbps[0])
		}
	}
}
