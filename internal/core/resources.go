package core

import "math"

// ResourceUsage estimates the FPGA resource consumption of a partitioner
// configuration on the paper's device, reproducing Table 2. A synthesis
// report cannot be regenerated without the vendor toolchain, so the
// estimator reconstructs the usage from the circuit structure the paper
// explains (Section 4.4): the write combiner's bank BRAMs dominate and
// shrink quadratically with fewer lanes; DSP usage is driven by the hash
// multipliers, which grow when 8-byte keys replace 4-byte keys at 16 B
// tuples and shrink with lane count after that; logic outside the combiners
// (QPI end-point, write-back, control) is roughly constant.
type ResourceUsage struct {
	TupleWidth int

	ALMs      int // adaptive logic modules used
	M20Ks     int // 20 Kb BRAM blocks used
	DSPBlocks int

	LogicPct float64
	BRAMPct  float64
	DSPPct   float64
}

// Stratix V 5SGXEA capacities (the paper's device).
const (
	deviceALMs  = 234720
	deviceM20Ks = 2560
	deviceDSPs  = 256

	m20kBytes = 2560 // 20 Kb data per block
)

// EstimateResources returns the estimated usage for the given configuration.
// The structural constants are calibrated so that the paper's default
// configuration (8192 partitions) reproduces Table 2 within ~2 percentage
// points; see resources_test.go for the comparison.
func EstimateResources(cfg Config) ResourceUsage {
	cfg = cfg.WithDefaults()
	lanes := cfg.Lanes()
	p := cfg.NumPartitions
	w := cfg.OutputTupleWidth()

	// BRAM: each of the lanes combiners has lanes banks, each holding one
	// W-byte tuple per partition, plus fill-rate BRAMs, FIFOs, the page
	// table, histogram and offset BRAMs, and the QPI end-point cache.
	bankBytes := lanes * lanes * p * w
	fillBytes := lanes * p // one byte of fill rate per partition per combiner
	fixedBlocks := 120     // QPI end-point cache, page table, write-back BRAMs
	perLaneBlocks := 22    // stage FIFOs and control per lane
	m20ks := ceilDiv(bankBytes+fillBytes, m20kBytes) + fixedBlocks + perLaneBlocks*lanes

	// DSP: the murmur pipeline multiplies twice per key. A 4-byte key
	// multiply fits 2 DSP blocks; an 8-byte key multiply needs 6 (partial
	// products). Tuples of 16 B and wider carry 8-byte keys (Section 4.4);
	// the write-back address arithmetic adds a constant 4 blocks.
	dspPerLane := 4 // 2 multiplies × 2 blocks for 4-byte keys
	if cfg.TupleWidth >= 16 {
		dspPerLane = 12 // 2 multiplies × 6 blocks for 8-byte keys
	}
	dsps := lanes*dspPerLane + 4

	// Logic: a fixed base for QPI end-point, page table and write-back,
	// plus per-bank-port combiner control (hazard logic, muxing), which
	// scales with lanes².
	alms := 60000 + 420*lanes*lanes

	return ResourceUsage{
		TupleWidth: cfg.TupleWidth,
		ALMs:       alms,
		M20Ks:      m20ks,
		DSPBlocks:  dsps,
		LogicPct:   pct(alms, deviceALMs),
		BRAMPct:    pct(m20ks, deviceM20Ks),
		DSPPct:     pct(dsps, deviceDSPs),
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func pct(used, total int) float64 {
	return math.Round(float64(used)/float64(total)*1000) / 10
}
