// Package qpi models the QPI end-point through which the FPGA accelerator
// reaches main memory (Section 2.1): all traffic moves in 64-byte cache
// lines, and the combined read+write bandwidth depends on the traffic mix as
// measured in Figure 2. The end-point is the component that throttles the
// partitioner — the circuit can produce a cache line per cycle (12.8 GB/s at
// 200 MHz), but QPI sustains only ~6.5 GB/s, so it exerts back-pressure on
// the write-back module (Section 4.3).
//
// The model is a per-cycle token bucket: every clock cycle the end-point
// accrues B(mix)/f bytes of budget, split between the read and write
// channels in proportion to the mix; a cache line may cross the link when
// its channel holds 64 bytes of budget.
package qpi

import (
	"fmt"
	"math"

	"fpgapart/internal/simtrace"
	"fpgapart/platform"
)

// LineBytes is the QPI transfer granularity.
const LineBytes = 64

// burstLines caps how much unused budget a channel can bank, bounding the
// burstiness of the model (a real link cannot save up idle cycles).
const burstLines = 4

// Endpoint is a cycle-stepped QPI end-point.
type Endpoint struct {
	clockHz float64
	curve   platform.BandwidthCurve

	readPerCyc  float64 // bytes of read budget accrued per cycle
	writePerCyc float64
	readTokens  float64
	writeTokens float64

	// Optional simtrace transfer counters (nil-receiver no-ops by
	// default): one increment per completed cache-line read/write. The
	// write counter counts link grants, which is not core.Stats.LinesWritten
	// (the lines the write-back committed): a PAD-overflow abort rejects
	// the line whose write was already granted, so there they differ by one.
	readCtr, writeCtr *simtrace.Counter
}

// Instrument attaches simtrace counters to the end-point's read and write
// channels. Either may be nil to leave that channel uncounted.
func (e *Endpoint) Instrument(reads, writes *simtrace.Counter) {
	e.readCtr, e.writeCtr = reads, writes
}

// New returns an end-point clocked at clockHz whose achievable bandwidth
// follows curve. The initial traffic mix is balanced. Every point of the
// curve must be finite and positive: a mix at which the link carries
// nothing would stall the circuit forever.
func New(clockHz float64, curve platform.BandwidthCurve) (*Endpoint, error) {
	if clockHz <= 0 {
		return nil, fmt.Errorf("qpi: clock %v Hz", clockHz)
	}
	if len(curve.Points) == 0 {
		return nil, fmt.Errorf("qpi: empty bandwidth curve")
	}
	for _, pt := range curve.Points {
		if !(pt > 0) || math.IsInf(pt, 1) {
			return nil, fmt.Errorf("qpi: bandwidth curve point %v GB/s", pt)
		}
	}
	e := &Endpoint{clockHz: clockHz, curve: curve}
	e.SetMix(0.5)
	return e, nil
}

// SetMix declares the read fraction of the upcoming traffic phase
// (1 = read-only, 0.5 = one read per write in bytes, 1/3 = VRID mode's one
// read per two writes). The bandwidth curve is evaluated at this mix and the
// budget split accordingly. Unspent budget is discarded, as a phase change
// corresponds to a new run configuration.
func (e *Endpoint) SetMix(readFrac float64) {
	if !(readFrac >= 0) { // negative or NaN
		readFrac = 0
	} else if readFrac > 1 {
		readFrac = 1
	}
	bytesPerSec := e.curve.BytesPerSecond(readFrac)
	perCycle := bytesPerSec / e.clockHz
	e.readPerCyc = perCycle * readFrac
	e.writePerCyc = perCycle * (1 - readFrac)
	e.readTokens = 0
	e.writeTokens = 0
}

// Tick advances one clock cycle, accruing channel budget.
func (e *Endpoint) Tick() {
	e.readTokens += e.readPerCyc
	if max := float64(burstLines * LineBytes); e.readTokens > max {
		e.readTokens = max
	}
	e.writeTokens += e.writePerCyc
	if max := float64(burstLines * LineBytes); e.writeTokens > max {
		e.writeTokens = max
	}
}

// CanRead reports whether a cache-line read may be issued this cycle.
func (e *Endpoint) CanRead() bool { return e.readTokens >= LineBytes }

// Read consumes budget for one cache-line read.
func (e *Endpoint) Read() {
	if !e.CanRead() {
		panic("qpi: read without budget")
	}
	e.readTokens -= LineBytes
	e.readCtr.Inc()
}

// CanWrite reports whether a cache-line write may be issued this cycle.
func (e *Endpoint) CanWrite() bool { return e.writeTokens >= LineBytes }

// Write consumes budget for one cache-line write.
func (e *Endpoint) Write() {
	if !e.CanWrite() {
		panic("qpi: write without budget")
	}
	e.writeTokens -= LineBytes
	e.writeCtr.Inc()
}
