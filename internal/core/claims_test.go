package core_test

import (
	"fmt"
	"testing"

	"fpgapart/experiments"
	"fpgapart/internal/core"
	"fpgapart/platform"
	"fpgapart/workload"
)

// The circuit's side of the paper's Table 2 and Figure 9, held to the
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

// runMode partitions n 8-byte tuples with the given mode on the given curve
// and returns throughput in million tuples per second.
func runMode(t *testing.T, format core.Format, layout core.Layout, curve platform.BandwidthCurve, n int) float64 {
	t.Helper()
	g := workload.NewGenerator(33)
	rel, err := g.Relation(workload.Random, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	if layout == core.VRID {
		rel = rel.ToColumns()
	}
	cfg := core.Config{NumPartitions: 8192, TupleWidth: 8, Hash: true, Format: format, Layout: layout, PadFraction: 0.5}
	c, err := core.NewCircuit(cfg, 200e6, curve)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	return stats.ThroughputTuplesPerSec() / 1e6
}

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
	curve := platform.XeonFPGA().FPGAAlone
	for _, f := range []core.Format{core.HIST, core.PAD} {
		for _, l := range []core.Layout{core.RID, core.VRID} {
			holdToClaim(t, "Figure 9", f.String()+"/"+l.String(), runMode(t, f, l, curve, calibrationTuples))
		}
	}
}

// TestRawFPGAThroughput verifies the raw-wrapper numbers (Section 4.7): with
// a 25.6 GB/s link the circuit is compute-bound at one cache line per cycle,
// 1.6 billion tuples/s in PAD mode and half that with HIST's two passes.
func TestRawFPGAThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput calibration is slow")
	}
	curve := platform.RawFPGA().FPGAAlone
	for _, f := range []core.Format{core.HIST, core.PAD} {
		holdToClaim(t, "Figure 9", "Raw "+f.String()+"/RID", runMode(t, f, core.RID, curve, calibrationTuples))
	}
}
