package experiments

import (
	"math/rand"
	"time"

	"fpgapart/platform"
)

// Figure2Point is one x-position of Figure 2: the bandwidth of each agent at
// a given sequential-read fraction of the traffic mix.
type Figure2Point struct {
	ReadFraction   float64
	CPUAlone       float64 // GB/s, platform model
	CPUInterfered  float64
	FPGAAlone      float64
	FPGAInterfered float64
	HostMeasured   float64 // GB/s measured on the machine running this code
}

// Figure2Result is the bandwidth sweep.
type Figure2Result struct {
	Points []Figure2Point
}

// RunFigure2 evaluates the calibrated Figure 2 curves at the paper's eleven
// mix ratios and, for shape comparison, measures the host's actual memory
// bandwidth at each mix with a sequential-read/random-write kernel.
func RunFigure2(cfg Config) (*Figure2Result, error) {
	cfg = cfg.WithDefaults()
	p := platform.XeonFPGA()
	// Host sweep buffer: large enough to defeat caches at default scale.
	bufWords := int(float64(64<<20) * cfg.Scale * 16)
	if bufWords < 1<<16 {
		bufWords = 1 << 16
	}
	buf := make([]uint64, bufWords)
	res := &Figure2Result{}
	for i := 0; i <= 10; i++ {
		frac := float64(i) / 10
		res.Points = append(res.Points, Figure2Point{
			ReadFraction:   frac,
			CPUAlone:       p.CPUAlone.At(frac),
			CPUInterfered:  p.CPUInterfered.At(frac),
			FPGAAlone:      p.FPGAAlone.At(frac),
			FPGAInterfered: p.FPGAInterfered.At(frac),
			HostMeasured:   MeasureMixBandwidth(buf, frac, cfg.Seed),
		})
	}
	return res, nil
}

// MeasureMixBandwidth runs one pass over buf issuing sequential reads and
// random writes in the byte proportion frac:(1-frac) and returns GB/s.
func MeasureMixBandwidth(buf []uint64, readFrac float64, seed int64) float64 {
	n := len(buf)
	rng := rand.New(rand.NewSource(seed))
	// Per 16-operation block, how many are reads.
	reads := int(readFrac*16 + 0.5)
	mask := uint32(nextPow2(n) - 1)
	var sink uint64
	start := time.Now()
	ops := 0
	ri, x := 0, rng.Uint32()
	for ops+16 <= n {
		for k := 0; k < reads; k++ {
			sink += buf[ri]
			ri++
		}
		for k := reads; k < 16; k++ {
			// xorshift for cheap random indices
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			idx := int(x & mask)
			if idx >= n {
				// n is above half the mask's range, so this lands in [0, n).
				idx -= int(mask+1) / 2
			}
			buf[idx] = sink
		}
		ops += 16
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	_ = sink
	return float64(ops*8) / elapsed / 1e9
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (res *Figure2Result) Notes() []string {
	return []string{"model curves calibrated to the paper; host_measured is this machine's real shape"}
}

func (res *Figure2Result) CSV() [][]string {
	rows := [][]string{{"read_fraction", "cpu_alone", "cpu_interfered", "fpga_alone", "fpga_interfered", "host_measured"}}
	for _, p := range res.Points {
		rows = append(rows, []string{f(p.ReadFraction), f(p.CPUAlone), f(p.CPUInterfered), f(p.FPGAAlone), f(p.FPGAInterfered), f(p.HostMeasured)})
	}
	return rows
}
