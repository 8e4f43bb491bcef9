package main

import (
	"math"
	"time"
)

// The box this benchmark is judged on shares its cores with strangers. For
// seconds to minutes at a time, store-heavy code — the CPU partitioner, the
// circuit simulator, the serving stack alike — runs 1.4–1.5× slower while a
// dependent-multiply loop does not move at all; the episodes start and stop
// on a time scale of tens of milliseconds to minutes, so neither the minimum
// nor the median of the op times repeats from one run to the next (README,
// "The statistic for host time").
//
// The harness therefore times a fixed kernel of its own, the contention
// probe, immediately before and after every op: 100 read-modify-write passes
// over 256 KiB, cache-resident and store-bound, 1.2–2.4 ms on a quiet core
// and about 1.9× that in an episode. An op's contention is the mean of its
// two probes over the fastest probe of the run, and its quiet-equivalent
// time is its host time divided by contention^contentionExponent.
//
// The exponent is a property of the box, measured once: over 180 runs in
// three periods an op slows by the 0.6th to 0.8th power of what the probe
// slows by, and 0.7 is the one value that serves all six workloads (README).
// The probe allocates nothing and touches no code of the program.

const (
	probeWords         = 1 << 15 // 256 KiB
	probePasses        = 100
	contentionExponent = 0.7
)

// prober owns the probe's buffer and remembers the fastest probe of the run.
type prober struct {
	buf    []uint64
	floorS float64
}

func newProber() *prober { return &prober{buf: make([]uint64, probeWords)} }

// probe runs the contention probe once on the calling goroutine and returns
// its host seconds.
func (p *prober) probe() float64 {
	t0 := time.Now()
	for r := 0; r < probePasses; r++ {
		for i := range p.buf {
			p.buf[i] = p.buf[i]*3 + uint64(i)
		}
	}
	s := time.Since(t0).Seconds()
	if p.floorS == 0 || s < p.floorS {
		p.floorS = s
	}
	return s
}

// quiet returns what hostS would have been on the quiet box, probeS being
// the mean probe time next to the measurement.
func (p *prober) quiet(hostS, probeS float64) float64 {
	if probeS <= p.floorS {
		return hostS
	}
	return hostS / math.Pow(probeS/p.floorS, contentionExponent)
}
