package core

import (
	"math"
	"testing"
)

// TestTable2Reproduction compares the structural resource estimate with the
// paper's synthesis report (Table 2) for the default 8192-partition
// configuration.
func TestTable2Reproduction(t *testing.T) {
	want := []struct {
		width              int
		logic, bram, dsp   float64
		tolLogic, tolOther float64
	}{
		{8, 37, 76, 14, 3, 3},
		{16, 28, 42, 21, 3, 3},
		{32, 27, 24, 11, 3, 3},
		{64, 27, 15, 6, 3, 3},
	}
	for _, w := range want {
		cfg := Config{NumPartitions: 8192, TupleWidth: w.width, Format: PAD, Layout: RID}
		got := EstimateResources(cfg)
		if math.Abs(got.LogicPct-w.logic) > w.tolLogic {
			t.Errorf("width %d: logic %.1f%%, paper %v%%", w.width, got.LogicPct, w.logic)
		}
		if math.Abs(got.BRAMPct-w.bram) > w.tolOther {
			t.Errorf("width %d: BRAM %.1f%%, paper %v%%", w.width, got.BRAMPct, w.bram)
		}
		if math.Abs(got.DSPPct-w.dsp) > w.tolOther {
			t.Errorf("width %d: DSP %.1f%%, paper %v%%", w.width, got.DSPPct, w.dsp)
		}
		if got.LogicPct > 100 || got.BRAMPct > 100 || got.DSPPct > 100 {
			t.Errorf("width %d does not fit the device: %+v", w.width, got)
		}
	}
}

// TestResourceTrends checks the qualitative claims of Section 4.4: resources
// drop with wider tuples except the DSP bump at 16 B (8-byte keys need more
// multipliers), after which DSP usage falls again.
func TestResourceTrends(t *testing.T) {
	var usage []ResourceUsage
	for _, w := range []int{8, 16, 32, 64} {
		usage = append(usage, EstimateResources(Config{NumPartitions: 8192, TupleWidth: w}))
	}
	for i := 1; i < len(usage); i++ {
		if usage[i].BRAMPct >= usage[i-1].BRAMPct {
			t.Errorf("BRAM should shrink with width: %v", usage)
		}
		if usage[i].LogicPct > usage[i-1].LogicPct {
			t.Errorf("logic should not grow with width: %v", usage)
		}
	}
	if usage[1].DSPPct <= usage[0].DSPPct {
		t.Error("DSP usage should bump at 16 B (8-byte keys)")
	}
	if usage[3].DSPPct >= usage[1].DSPPct {
		t.Error("DSP usage should fall again for 64 B tuples")
	}
}

// TestResourcesScaleWithPartitions: doubling the fan-out doubles the bank
// BRAM requirement; a huge fan-out must stop fitting the device.
func TestResourcesScaleWithPartitions(t *testing.T) {
	small := EstimateResources(Config{NumPartitions: 1024, TupleWidth: 8})
	big := EstimateResources(Config{NumPartitions: 8192, TupleWidth: 8})
	if big.M20Ks <= small.M20Ks {
		t.Error("more partitions must use more BRAM")
	}
	huge := EstimateResources(Config{NumPartitions: 1 << 17, TupleWidth: 8})
	if huge.BRAMPct <= 100 {
		t.Errorf("2^17 partitions at 8 B should not fit a Stratix V: %+v", huge)
	}
}
