package core

import "testing"

// TestResourceTrends checks the qualitative claims of Section 4.4: every
// width fits the device, and resources drop with wider tuples except the DSP
// bump at 16 B (8-byte keys need more multipliers), after which DSP usage
// falls again.
func TestResourceTrends(t *testing.T) {
	var usage []ResourceUsage
	for _, w := range []int{8, 16, 32, 64} {
		u := EstimateResources(Config{NumPartitions: 8192, TupleWidth: w})
		if max(u.LogicPct, u.BRAMPct, u.DSPPct) > 100 {
			t.Errorf("width %d does not fit the device: %+v", w, u)
		}
		usage = append(usage, u)
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
