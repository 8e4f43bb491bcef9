// Package model implements the analytical cost model of the FPGA
// partitioner (Section 4.6, equations 1–7, Table 3 notation) and its
// validation against the measured operating points (Section 4.8).
//
// The model states that the partitioner's total processing rate is the
// minimum of the circuit's pipeline rate and the memory system's rate:
//
//	P_total = min{ 1 / (f_mode · (1/B_FPGA + L_FPGA/N)),  B(r) / (W·(r+1)) }
//
// where B_FPGA = CL/W · f_FPGA is the circuit rate in tuples/s, L_FPGA is
// the pipeline latency, f_mode doubles the cost in HIST mode (two passes),
// and the second term is the memory rate for a read-to-write ratio r. On
// the Xeon+FPGA platform the memory term always wins; with ≥ 25.6 GB/s the
// circuit term takes over at 1.6 billion tuples/s.
package model

import (
	"fpgapart/internal/core"
	"fpgapart/platform"
)

// Table 3 constants.
const (
	// CacheLine is CL, the width of a cache line in bytes.
	CacheLine = 64
	// CyclesHashing is c_hashing, the hash pipeline depth.
	CyclesHashing = 5
	// CyclesWriteComb is c_writecomb, the write-combiner flush worst case
	// (8 combiners × 8192 partitions + pipeline drain).
	CyclesWriteComb = 65540
	// CyclesFIFOs is c_fifos, the FIFO traversal latency.
	CyclesFIFOs = 4
)

// Params instantiates the model for one configuration.
type Params struct {
	// FPGAClockHz is f_FPGA (200 MHz on the paper's platform).
	FPGAClockHz float64
	// TupleWidth is W in bytes.
	TupleWidth int
	// N is the number of tuples.
	N int64
	// Hist selects HIST mode (f_mode = 2); false selects PAD (f_mode = 1).
	Hist bool
	// ReadWriteRatio is r: 2 for HIST/RID, 1 for PAD/RID and HIST/VRID,
	// 0.5 for PAD/VRID. Use Ratio to derive it from a mode.
	ReadWriteRatio float64
	// Bandwidth is the link's B(r) curve.
	Bandwidth platform.BandwidthCurve
}

// ModeFactor returns f_mode.
func (p Params) ModeFactor() float64 {
	if p.Hist {
		return 2
	}
	return 1
}

// CircuitRate returns B_FPGA = CL/W · f_FPGA in tuples/s: one cache line of
// tuples per clock cycle.
func (p Params) CircuitRate() float64 {
	return CacheLine / float64(p.TupleWidth) * p.FPGAClockHz
}

// Latency returns L_FPGA in seconds (equation 4).
func (p Params) Latency() float64 {
	return (CyclesHashing + CyclesWriteComb + CyclesFIFOs) / p.FPGAClockHz
}

// ProcessRate returns the pipeline-bound rate P_FPGA in tuples/s
// (equation 5).
func (p Params) ProcessRate() float64 {
	return 1 / (p.ModeFactor() * (1/p.CircuitRate() + p.Latency()/float64(p.N)))
}

// MemoryRate returns the memory-bound rate P_mem = B(r)/(W·(r+1)) in
// tuples/s (equation 6).
func (p Params) MemoryRate() float64 {
	r := p.ReadWriteRatio
	return p.Bandwidth.AtRatio(r) * 1e9 / (float64(p.TupleWidth) * (r + 1))
}

// TotalRate returns P_total (equation 7).
func (p Params) TotalRate() float64 {
	proc, mem := p.ProcessRate(), p.MemoryRate()
	if proc < mem {
		return proc
	}
	return mem
}

// Mode identifies the four operating modes for Ratio.
type Mode struct {
	Hist bool
	VRID bool
}

// ModeOf returns the mode of a circuit with the given output format and
// input layout.
func ModeOf(f core.Format, l core.Layout) Mode {
	return Mode{Hist: f == core.HIST, VRID: l == core.VRID}
}

// Ratio returns the read-to-write byte ratio r of the mode (Section 4.8):
// HIST/RID reads the data twice per write (r = 2); PAD/RID and HIST/VRID
// read as much as they write (r = 1); PAD/VRID reads half (r = 0.5).
func Ratio(m Mode) float64 {
	switch {
	case m.Hist && !m.VRID:
		return 2
	case !m.Hist && m.VRID:
		return 0.5
	default:
		return 1
	}
}

// ForMode builds Params for one of the paper's four modes on the given
// platform, with 8-byte tuples and the given N.
func ForMode(m Mode, p *platform.Platform, n int64) Params {
	return Params{
		FPGAClockHz:    p.FPGAClockHz,
		TupleWidth:     8,
		N:              n,
		Hist:           m.Hist,
		ReadWriteRatio: Ratio(m),
		Bandwidth:      p.FPGAAlone,
	}
}

// Validation reproduces the three operating points of Section 4.8 for
// N = 128e6 and W = 8 B on the Xeon+FPGA platform.
type Validation struct {
	Mode      string
	Ratio     float64
	Bandwidth float64 // B(r) in GB/s
	Predicted float64 // tuples/s
	Paper     float64 // the paper's derived value, tuples/s
}

// Validate returns the Section 4.8 table.
func Validate(p *platform.Platform) []Validation {
	const n = 128e6
	cases := []struct {
		name  string
		mode  Mode
		paper float64
	}{
		{"HIST/RID", Mode{Hist: true}, 294e6},
		{"HIST/VRID & PAD/RID", Mode{}, 435e6}, // r = 1 covers both
		{"PAD/VRID", Mode{VRID: true}, 495e6},
	}
	out := make([]Validation, len(cases))
	for i, c := range cases {
		params := ForMode(c.mode, p, n)
		out[i] = Validation{
			Mode:      c.name,
			Ratio:     params.ReadWriteRatio,
			Bandwidth: params.Bandwidth.AtRatio(params.ReadWriteRatio),
			Predicted: params.TotalRate(),
			Paper:     c.paper,
		}
	}
	return out
}

// JoinPrediction estimates the FPGA partitioning time of one relation for
// the "model prediction" marks in the paper's join figures.
func JoinPrediction(m Mode, p *platform.Platform, n int64) float64 {
	return float64(n) / ForMode(m, p, n).TotalRate()
}
