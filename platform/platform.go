// Package platform models the Intel Xeon+FPGA (HARP v1) machine the paper
// runs on (Section 2): a dual-socket box with a 10-core Xeon E5-2680 v2 on
// one socket and an Altera Stratix V FPGA on the other, connected by QPI with
// cache-coherent access to 96 GB of memory on the CPU socket.
//
// Two aspects of the platform shape every result in the paper and are modeled
// here: the memory bandwidth available to each agent as a function of its
// sequential-read to random-write ratio (Figure 2), and the cache-coherence
// snoop penalty the CPU pays when reading memory last written by the FPGA
// (Table 1). Both models are calibrated to the paper's measurements; the
// calibration points are spelled out next to the data.
package platform

import (
	"fmt"
	"time"
)

// BandwidthCurve is a piecewise-linear memory bandwidth curve over the read
// fraction of the traffic mix: point i of Points corresponds to a read
// fraction of i/(len(Points)-1), i.e. Points[0] is pure random write and the
// last point is pure sequential read, matching the x-axis of Figure 2
// (read/write ratio 0/1 ... 1/0). Values are GB/s.
type BandwidthCurve struct {
	Points []float64
}

// At returns the interpolated bandwidth in GB/s for the given read fraction
// (0 = all writes, 1 = all reads). Fractions outside [0, 1] are clamped.
func (c BandwidthCurve) At(readFrac float64) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	if len(c.Points) == 1 {
		return c.Points[0]
	}
	if readFrac < 0 {
		readFrac = 0
	} else if readFrac > 1 {
		readFrac = 1
	}
	pos := readFrac * float64(len(c.Points)-1)
	i := int(pos)
	if i >= len(c.Points)-1 {
		return c.Points[len(c.Points)-1]
	}
	frac := pos - float64(i)
	return c.Points[i]*(1-frac) + c.Points[i+1]*frac
}

// AtRatio returns the bandwidth for a read-to-write byte ratio r (the
// parameter of the paper's cost model, Section 4.6: r = 2 for HIST/RID,
// 1 for PAD/RID and HIST/VRID, 0.5 for PAD/VRID). r maps to a read fraction
// of r/(1+r).
func (c BandwidthCurve) AtRatio(r float64) float64 {
	if r < 0 {
		r = 0
	}
	return c.At(r / (1 + r))
}

// BytesPerSecond returns the curve value converted from GB/s to bytes/s.
func (c BandwidthCurve) BytesPerSecond(readFrac float64) float64 {
	return c.At(readFrac) * 1e9
}

// CoherenceModel captures Table 1: single-threaded time for the CPU to read
// a 512 MB region, depending on the access pattern and on which socket last
// wrote the region. When the FPGA wrote last, CPU reads are snooped on the
// FPGA socket, whose 128 KB cache almost never holds the line, so every
// snoop is pure added latency — and unlike a homogeneous 2-socket machine,
// the snoop filter is only updated by writes, so re-reading never gets
// faster.
type CoherenceModel struct {
	// Per-cache-line read costs in nanoseconds, calibrated from Table 1
	// (512 MB = 8 Mi cache lines).
	SeqReadLocalNS   float64 // CPU reads, CPU wrote last:  0.1381 s / 8 Mi lines
	SeqReadRemoteNS  float64 // CPU reads, FPGA wrote last: 0.1533 s / 8 Mi lines
	RandReadLocalNS  float64 // random reads, CPU wrote:    1.1537 s / 8 Mi lines
	RandReadRemoteNS float64 // random reads, FPGA wrote:   2.4876 s / 8 Mi lines

	// ProbeMemFraction is the fraction of the radix join's probe-phase time
	// spent on random reads of FPGA-written partition data (the rest is
	// hashing and chain traversal compute). It converts the raw random-read
	// penalty into the end-to-end probe slowdown seen in Figures 10–12.
	ProbeMemFraction float64
}

// SeqPenalty returns the multiplicative slowdown of sequential CPU reads on
// FPGA-written memory (Table 1: 0.1533/0.1381 ≈ 1.11).
func (m CoherenceModel) SeqPenalty() float64 {
	if m.SeqReadLocalNS == 0 {
		return 1
	}
	return m.SeqReadRemoteNS / m.SeqReadLocalNS
}

// RandPenalty returns the multiplicative slowdown of random CPU reads on
// FPGA-written memory (Table 1: 2.4876/1.1537 ≈ 2.16).
func (m CoherenceModel) RandPenalty() float64 {
	if m.RandReadLocalNS == 0 {
		return 1
	}
	return m.RandReadRemoteNS / m.RandReadLocalNS
}

// JoinTime is the one cost rule of a CPU build and probe over partitions
// last written by writer: given the times they take over CPU-written
// partitions, it returns the times they take over writer's. A CPU writer
// costs nothing extra. Over FPGA-written partitions every CPU read is
// snooped on the FPGA socket (Section 2.2, Table 1): the build scans its
// partition sequentially and pays the sequential penalty ("during the build
// phase the effect is not as high"); the probe's random accesses into the
// build partition cannot be prefetched past the snoops, so its memory-bound
// fraction, ProbeMemFraction, pays the random penalty.
func (m CoherenceModel) JoinTime(build, probe time.Duration, writer Socket) (time.Duration, time.Duration) {
	if writer != FPGASocket {
		return build, probe
	}
	probePenalty := 1 + (m.RandPenalty()-1)*m.ProbeMemFraction
	return time.Duration(float64(build) * m.SeqPenalty()), time.Duration(float64(probe) * probePenalty)
}

// ReadTime models Table 1 directly: the time for a single CPU thread to read
// bytes worth of memory with the given pattern when the region was last
// written by the given socket.
func (m CoherenceModel) ReadTime(bytes int64, random bool, lastWriter Socket) float64 {
	lines := float64(bytes) / 64
	var ns float64
	switch {
	case !random && lastWriter == CPUSocket:
		ns = m.SeqReadLocalNS
	case !random && lastWriter == FPGASocket:
		ns = m.SeqReadRemoteNS
	case random && lastWriter == CPUSocket:
		ns = m.RandReadLocalNS
	default:
		ns = m.RandReadRemoteNS
	}
	return lines * ns / 1e9
}

// Socket identifies which socket of the hybrid machine performed an access.
type Socket int

const (
	CPUSocket Socket = iota
	FPGASocket
)

func (s Socket) String() string {
	switch s {
	case CPUSocket:
		return "CPU"
	case FPGASocket:
		return "FPGA"
	default:
		return fmt.Sprintf("Socket(%d)", int(s))
	}
}

// Platform describes a hybrid CPU+FPGA machine.
type Platform struct {
	Name string

	// FPGAClockHz is the FPGA socket's clock.
	FPGAClockHz float64

	// Bandwidth curves (Figure 2).
	CPUAlone       BandwidthCurve
	CPUInterfered  BandwidthCurve
	FPGAAlone      BandwidthCurve
	FPGAInterfered BandwidthCurve

	Coherence CoherenceModel
}

// Validate reports whether the platform description is usable: a positive
// FPGA clock, and non-empty bandwidth curves with no negative
// points. Consumers that simulate against the platform (partition.NewFPGA,
// distjoin.Join) validate up front so a malformed hand-built platform fails
// fast instead of producing NaN timings deep in a run.
func (p *Platform) Validate() error {
	if p == nil {
		return fmt.Errorf("platform: nil platform")
	}
	if p.FPGAClockHz <= 0 {
		return fmt.Errorf("platform %q: non-positive FPGA clock %v Hz", p.Name, p.FPGAClockHz)
	}
	for _, c := range []struct {
		name  string
		curve BandwidthCurve
	}{
		{"CPUAlone", p.CPUAlone}, {"CPUInterfered", p.CPUInterfered},
		{"FPGAAlone", p.FPGAAlone}, {"FPGAInterfered", p.FPGAInterfered},
	} {
		if len(c.curve.Points) == 0 {
			return fmt.Errorf("platform %q: empty %s bandwidth curve", p.Name, c.name)
		}
		for _, pt := range c.curve.Points {
			if pt < 0 {
				return fmt.Errorf("platform %q: negative point %v in %s curve", p.Name, pt, c.name)
			}
		}
	}
	if p.Coherence.SeqReadLocalNS < 0 || p.Coherence.SeqReadRemoteNS < 0 ||
		p.Coherence.RandReadLocalNS < 0 || p.Coherence.RandReadRemoteNS < 0 {
		return fmt.Errorf("platform %q: negative coherence read cost", p.Name)
	}
	if p.Coherence.ProbeMemFraction < 0 || p.Coherence.ProbeMemFraction > 1 {
		return fmt.Errorf("platform %q: ProbeMemFraction %v outside [0, 1]", p.Name, p.Coherence.ProbeMemFraction)
	}
	return nil
}

// XeonFPGA returns the Intel Xeon+FPGA v1 platform of the paper.
//
// Bandwidth calibration: the FPGA curve reproduces the QPI operating points
// the paper's model validation uses (Section 4.8): B(r=2) = 7.05 GB/s,
// B(r=1) = 6.97 GB/s, B(r=0.5) = 5.94 GB/s, and ≈6.5 GB/s for balanced
// traffic per Section 2.1. The CPU curve follows the Figure 2 shape: ~30 GB/s
// for pure sequential reads on one socket, falling below 8 GB/s as the mix
// becomes random-write dominated. Interfered curves reflect the measured
// collapse when both agents issue traffic at once.
func XeonFPGA() *Platform {
	return &Platform{
		Name:        "Intel Xeon+FPGA v1 (HARP)",
		FPGAClockHz: 200e6,
		// Read fraction 0.0, 0.1, ..., 1.0 (11 points).
		CPUAlone: BandwidthCurve{Points: []float64{
			7.5, 8.0, 8.7, 9.5, 10.5, 11.8, 13.3, 15.2, 18.0, 23.0, 30.0,
		}},
		CPUInterfered: BandwidthCurve{Points: []float64{
			4.5, 4.8, 5.2, 5.7, 6.3, 7.1, 8.0, 9.1, 10.8, 13.8, 18.0,
		}},
		FPGAAlone: BandwidthCurve{Points: []float64{
			5.00, 5.30, 5.60, 5.80, 6.25, 6.97, 7.02, 7.05, 7.07, 7.09, 7.10,
		}},
		FPGAInterfered: BandwidthCurve{Points: []float64{
			3.50, 3.70, 3.95, 4.15, 4.55, 4.90, 4.92, 4.94, 4.96, 4.97, 5.00,
		}},
		Coherence: CoherenceModel{
			SeqReadLocalNS:   0.1381 * 1e9 / (512 << 20 / 64),
			SeqReadRemoteNS:  0.1533 * 1e9 / (512 << 20 / 64),
			RandReadLocalNS:  1.1537 * 1e9 / (512 << 20 / 64),
			RandReadRemoteNS: 2.4876 * 1e9 / (512 << 20 / 64),
			ProbeMemFraction: 0.30,
		},
	}
}

// RawFPGA returns a hypothetical platform identical to XeonFPGA but with a
// 25.6 GB/s link to the FPGA, the configuration of the paper's "raw FPGA"
// wrapper experiment (Section 4.7): an on-chip traffic generator that feeds
// the partitioner at 25.6 GB/s combined read+write bandwidth, so the circuit
// rather than the link becomes the bottleneck.
func RawFPGA() *Platform {
	p := XeonFPGA()
	p.Name = "Raw FPGA wrapper (25.6 GB/s)"
	flat := make([]float64, 11)
	for i := range flat {
		flat[i] = 25.6
	}
	p.FPGAAlone = BandwidthCurve{Points: flat}
	p.FPGAInterfered = BandwidthCurve{Points: flat}
	return p
}

// FutureIntegrated returns a platform sketching the paper's outlook
// (Section 4.8/6): the same circuit hardened next to the CPU with full
// memory bandwidth available, where FPGA-style partitioning becomes the most
// efficient option. Used by the extension benchmarks.
func FutureIntegrated() *Platform {
	p := XeonFPGA()
	p.Name = "Future integrated accelerator"
	p.FPGAAlone = p.CPUAlone
	p.FPGAInterfered = p.CPUInterfered
	// Tighter integration removes the asymmetric snoop penalty.
	p.Coherence.SeqReadRemoteNS = p.Coherence.SeqReadLocalNS
	p.Coherence.RandReadRemoteNS = p.Coherence.RandReadLocalNS
	return p
}
