package core_test

import (
	"fmt"
	"testing"

	"fpgapart/experiments"
	"fpgapart/internal/core"
	"fpgapart/internal/model"
	"fpgapart/platform"
	"fpgapart/workload"
)

// The circuit's side of the paper's Table 2 and Figures 9 and 10, held to the
// intervals the claims table in package experiments gives them.

// holdToClaim fails t when got is outside the interval of the claims-table
// row for series of exhibit, and logs it beside the paper's value.
func holdToClaim(t *testing.T, exhibit, series string, got float64) {
	t.Helper()
	c := experiments.ClaimOf(exhibit, series)
	if got < c.Lo || got > c.Hi {
		t.Errorf("%s %s = %.4g, outside [%.4g, %.4g]: %s", exhibit, series, got, c.Lo, c.Hi, c.Why)
	} else {
		t.Logf("%s %s = %.4g (paper: %.4g)", exhibit, series, got, c.Paper)
	}
}

// TestTable2Reproduction compares the structural resource estimate with the
// paper's synthesis report (Table 2) for the default 8192-partition
// configuration.
func TestTable2Reproduction(t *testing.T) {
	for _, w := range []int{8, 16, 32, 64} {
		got := core.EstimateResources(core.Config{NumPartitions: 8192, TupleWidth: w, Format: core.PAD, Layout: core.RID})
		holdToClaim(t, "Table 2", fmt.Sprint(w, " B logic"), got.LogicPct)
		holdToClaim(t, "Table 2", fmt.Sprint(w, " B BRAM"), got.BRAMPct)
		holdToClaim(t, "Table 2", fmt.Sprint(w, " B DSP"), got.DSPPct)
	}
}

// runMode partitions calibrationTuples 8-byte tuples with the given mode on
// the platform's link at the given fan-out and returns throughput in million
// tuples per second. Each configuration runs once per test binary: Figure
// 9's PAD/RID bar is also Figure 10's 8192-partition point.
func runMode(t *testing.T, format core.Format, layout core.Layout, plat *platform.Platform, parts int) float64 {
	t.Helper()
	key := fmt.Sprint(format, layout, plat.Name, parts)
	if v, ok := modeRuns[key]; ok {
		return v
	}
	g := workload.NewGenerator(33)
	rel, err := g.Relation(workload.Random, 8, calibrationTuples)
	if err != nil {
		t.Fatal(err)
	}
	if layout == core.VRID {
		rel = rel.ToColumns()
	}
	cfg := core.Config{NumPartitions: parts, TupleWidth: 8, Hash: true, Format: format, Layout: layout, PadFraction: 0.5}
	c, err := core.NewCircuit(cfg, 200e6, plat.FPGAAlone)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	modeRuns[key] = stats.ThroughputTuplesPerSec() / 1e6
	return modeRuns[key]
}

var modeRuns = map[string]float64{}

// Large enough that the fixed 65540-cycle flush (Section 4.6) fades; the
// paper uses 128 M tuples, where it is negligible.
const calibrationTuples = 8 << 20

// TestFigure9OperatingPoints verifies the simulated end-to-end throughputs of
// the four modes land near the paper's measurements (Figure 9, 8192
// partitions, 8 B tuples) on the Xeon+FPGA link.
func TestFigure9OperatingPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput calibration is slow")
	}
	for _, f := range []core.Format{core.HIST, core.PAD} {
		for _, l := range []core.Layout{core.RID, core.VRID} {
			holdToClaim(t, "Figure 9", f.String()+"/"+l.String(), runMode(t, f, l, platform.XeonFPGA(), 8192))
		}
	}
}

// TestFigure10PartitioningFlat holds the FPGA side of Figure 10: the
// circuit's partitioning time does not grow with the fan-out. It runs
// PAD/RID, the mode RunFigure10 runs on the FPGA, on the Xeon+FPGA link at
// fan-outs 256 and 8192. The one cost that grows with the fan-out P is the
// end-of-run flush, at most §4.6's c_writecomb = 8·P + 4 lines. A flushed
// line costs the link no more than a line of the partition pass (read once,
// written once), which moves N/8 of them, so
//
//	1 ≤ t(8192)/t(256) ≤ 1 + (c_writecomb(8192) − c_writecomb(256)) / (N/8) ≈ 1.061.
func TestFigure10PartitioningFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput calibration is slow")
	}
	writeComb := func(p int) float64 { return 8*float64(p) + 4 }
	if writeComb(8192) != model.CyclesWriteComb {
		t.Fatalf("c_writecomb(8192) = %v, model has %v", writeComb(8192), model.CyclesWriteComb)
	}
	bound := 1 + (writeComb(8192)-writeComb(256))/(calibrationTuples/8)
	// Equal tuple counts, so the time ratio is the inverse throughput ratio.
	ratio := runMode(t, core.PAD, core.RID, platform.XeonFPGA(), 256) / runMode(t, core.PAD, core.RID, platform.XeonFPGA(), 8192)
	if ratio < 1 || ratio > bound {
		t.Errorf("t(8192)/t(256) = %.4f, outside [1, %.4f]", ratio, bound)
	} else {
		t.Logf("t(8192)/t(256) = %.4f (bound %.4f)", ratio, bound)
	}
}

// TestRawFPGAThroughput verifies the raw-wrapper numbers (Section 4.7): with
// a 25.6 GB/s link the circuit is compute-bound at one cache line per cycle,
// 1.6 billion tuples/s in PAD mode and half that with HIST's two passes.
func TestRawFPGAThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput calibration is slow")
	}
	for _, f := range []core.Format{core.HIST, core.PAD} {
		holdToClaim(t, "Figure 9", "Raw "+f.String()+"/RID", runMode(t, f, core.RID, platform.RawFPGA(), 8192))
	}
}
