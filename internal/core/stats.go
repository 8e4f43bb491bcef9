package core

import "time"

// Stats reports what happened during a simulated partitioning run.
type Stats struct {
	// Cycles is the total number of FPGA clock cycles the run took,
	// including histogram pass, prefix sum, partitioning pass and flush.
	Cycles int64
	// Elapsed is Cycles converted to wall time at the configured clock.
	Elapsed time.Duration

	// Phase breakdown.
	HistogramCycles int64
	PrefixSumCycles int64
	PartitionCycles int64
	FlushCycles     int64

	// QPI traffic. LinesWritten counts the lines the write-back committed,
	// which is not the qpi.lines_written counter of link grants: the line
	// on which a PAD overflow is detected was granted but is not committed,
	// so on an aborted run the counter is one higher.
	LinesRead    int64
	LinesWritten int64

	// Tuples.
	TuplesIn  int64
	TuplesOut int64 // valid tuples written (equals TuplesIn on success)
	Dummies   int64 // padding tuples written by the flush

	// StallsBackpressure counts cycles in which the input stage could not
	// issue a read because of QPI back-pressure (full FIFOs downstream or no
	// read budget). This is the expected, bandwidth-bound stall.
	StallsBackpressure int64
	// StallsHazard counts cycles lost to fill-rate BRAM read hazards. With
	// the forwarding registers of Code 4 this is always zero — the paper's
	// central claim — and the simulator asserts so unless forwarding is
	// disabled for ablation.
	StallsHazard int64
	// ForwardedHazards counts tuples whose fill rate was supplied by a
	// forwarding register rather than the BRAM read (the cases that would
	// have stalled without forwarding).
	ForwardedHazards int64

	// PageTranslations counts FPGA-side virtual-to-physical translations.
	PageTranslations int64

	// HashPipelineBubbles counts partition-pass cycles in which the input
	// stage fed no lane group into the hash pipelines — a bubble traveling
	// down the five stages. Bubbles come from QPI read back-pressure, the
	// FIFO back-pressure rule of Section 4.3, or the end-of-input drain.
	HashPipelineBubbles int64

	// CombinerBRAMReads/Writes count the write combiners' aggregate BRAM
	// port traffic: fill-rate BRAM reads (skipped when a forwarding
	// register supplies the value) and bank reads during line assembly, vs
	// fill-rate updates and bank writes per accepted tuple. Together with
	// Cycles they give the per-port utilization of Section 4.2's BRAMs.
	CombinerBRAMReads  int64
	CombinerBRAMWrites int64

	// MaxStage1FIFO is the high-water occupancy across lane FIFOs.
	MaxStage1FIFO int

	// Overflowed is set when a PAD run aborted on partition overflow; the
	// run's error is ErrPartitionOverflow and the output is invalid.
	Overflowed bool
	// OverflowAtTuple records how many tuples had entered the circuit when
	// the overflow was detected ("the detection time ... is random and
	// depends on the arrival order", Section 5.4).
	OverflowAtTuple int64
}

// ThroughputTuplesPerSec returns end-to-end tuples/s at the simulated clock.
func (s Stats) ThroughputTuplesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.TuplesIn) / s.Elapsed.Seconds()
}

// DataProcessedGBps returns the total QPI traffic rate in GB/s, the "Total
// Data Processed" series of Figure 8.
func (s Stats) DataProcessedGBps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.LinesRead+s.LinesWritten) * 64 / s.Elapsed.Seconds() / 1e9
}
