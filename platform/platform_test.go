package platform

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBandwidthCurveAtEndpoints(t *testing.T) {
	c := BandwidthCurve{Points: []float64{5, 6, 7}}
	if c.At(0) != 5 || c.At(1) != 7 {
		t.Errorf("endpoints: %v %v", c.At(0), c.At(1))
	}
	if c.At(0.5) != 6 {
		t.Errorf("midpoint: %v, want 6", c.At(0.5))
	}
	if c.At(0.25) != 5.5 {
		t.Errorf("quarter: %v, want 5.5", c.At(0.25))
	}
}

func TestBandwidthCurveClamps(t *testing.T) {
	c := BandwidthCurve{Points: []float64{5, 7}}
	if c.At(-1) != 5 || c.At(2) != 7 {
		t.Errorf("clamping failed: %v %v", c.At(-1), c.At(2))
	}
}

func TestBandwidthCurveDegenerate(t *testing.T) {
	if (BandwidthCurve{}).At(0.5) != 0 {
		t.Error("empty curve should read 0")
	}
	one := BandwidthCurve{Points: []float64{9}}
	if one.At(0) != 9 || one.At(1) != 9 {
		t.Error("single-point curve should be constant")
	}
}

func TestBandwidthCurveMonotoneInterpolation(t *testing.T) {
	// The interpolated value always lies between the surrounding points when
	// the curve is monotone (all our calibrated curves are).
	c := XeonFPGA().CPUAlone
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 1)
		v := c.At(x)
		return v >= c.Points[0] && v <= c.Points[len(c.Points)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtRatioMapsToReadFraction(t *testing.T) {
	c := XeonFPGA().FPGAAlone
	// r -> r/(1+r): r=1 is the 0.5 fraction point.
	if got, want := c.AtRatio(1), c.At(0.5); got != want {
		t.Errorf("AtRatio(1) = %v, want At(0.5) = %v", got, want)
	}
	if got, want := c.AtRatio(0), c.At(0); got != want {
		t.Errorf("AtRatio(0) = %v, want At(0) = %v", got, want)
	}
	// Negative ratios are nonsense; they clamp to all-write.
	if got, want := c.AtRatio(-3), c.At(0); got != want {
		t.Errorf("AtRatio(-3) = %v, want %v", got, want)
	}
}

func TestXeonFPGACalibrationPoints(t *testing.T) {
	// Section 4.8 uses these three QPI operating points; the curve must
	// reproduce them closely, since model validation depends on them.
	p := XeonFPGA()
	cases := []struct {
		r    float64
		want float64
	}{
		{2, 7.05}, {1, 6.97}, {0.5, 5.94},
	}
	for _, c := range cases {
		got := p.FPGAAlone.AtRatio(c.r)
		if math.Abs(got-c.want) > 0.15 {
			t.Errorf("FPGA B(r=%v) = %.2f GB/s, want %.2f ± 0.15", c.r, got, c.want)
		}
	}
	if p.CPUAlone.At(1) < 25 {
		t.Errorf("CPU sequential-read bandwidth = %v, want ~30 GB/s", p.CPUAlone.At(1))
	}
}

func TestInterferenceReducesBandwidth(t *testing.T) {
	p := XeonFPGA()
	for i := 0; i <= 10; i++ {
		x := float64(i) / 10
		if p.CPUInterfered.At(x) >= p.CPUAlone.At(x) {
			t.Errorf("CPU interfered ≥ alone at %v", x)
		}
		if p.FPGAInterfered.At(x) >= p.FPGAAlone.At(x) {
			t.Errorf("FPGA interfered ≥ alone at %v", x)
		}
	}
}

func TestCoherencePenalties(t *testing.T) {
	m := XeonFPGA().Coherence
	if got := m.SeqPenalty(); math.Abs(got-0.1533/0.1381) > 1e-9 {
		t.Errorf("SeqPenalty = %v", got)
	}
	if got := m.RandPenalty(); math.Abs(got-2.4876/1.1537) > 1e-9 {
		t.Errorf("RandPenalty = %v", got)
	}
	// The build pays the sequential penalty, the probe a penalty between 1
	// and the raw random one; a CPU writer costs nothing.
	const build, probe = time.Second, time.Second
	b, p := m.JoinTime(build, probe, FPGASocket)
	if b != time.Duration(float64(build)*m.SeqPenalty()) {
		t.Errorf("FPGA-written build %v, want %v × the sequential penalty", b, build)
	}
	if p <= probe || float64(p) >= float64(probe)*m.RandPenalty() {
		t.Errorf("FPGA-written probe %v, want between %v and %v × the random penalty", p, probe, probe)
	}
	if b, p := m.JoinTime(build, probe, CPUSocket); b != build || p != probe {
		t.Errorf("CPU-written build and probe %v, %v; want %v, %v", b, p, build, probe)
	}
}

func TestCoherenceZeroModelIsNeutral(t *testing.T) {
	var m CoherenceModel
	if m.SeqPenalty() != 1 || m.RandPenalty() != 1 {
		t.Error("zero model must have penalty 1")
	}
	if b, p := m.JoinTime(time.Second, time.Second, FPGASocket); b != time.Second || p != time.Second {
		t.Errorf("zero model FPGA-written build and probe %v, %v; want 1s each", b, p)
	}
}

func TestReadTimeReproducesTable1(t *testing.T) {
	m := XeonFPGA().Coherence
	const region = 512 << 20
	cases := []struct {
		random bool
		writer Socket
		want   float64
	}{
		{false, CPUSocket, 0.1381},
		{false, FPGASocket, 0.1533},
		{true, CPUSocket, 1.1537},
		{true, FPGASocket, 2.4876},
	}
	for _, c := range cases {
		got := m.ReadTime(region, c.random, c.writer)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("ReadTime(random=%v, writer=%v) = %v, want %v", c.random, c.writer, got, c.want)
		}
	}
}

func TestRawFPGAFlatCurve(t *testing.T) {
	p := RawFPGA()
	for i := 0; i <= 10; i++ {
		if got := p.FPGAAlone.At(float64(i) / 10); got != 25.6 {
			t.Errorf("raw FPGA bandwidth at %d/10 = %v, want 25.6", i, got)
		}
	}
}

func TestFutureIntegratedRemovesSnoopPenalty(t *testing.T) {
	p := FutureIntegrated()
	if p.Coherence.SeqPenalty() != 1 || p.Coherence.RandPenalty() != 1 {
		t.Error("future platform should have no snoop penalty")
	}
	if p.FPGAAlone.At(1) != p.CPUAlone.At(1) {
		t.Error("future platform FPGA should see CPU-class bandwidth")
	}
}

func TestSocketString(t *testing.T) {
	if CPUSocket.String() != "CPU" || FPGASocket.String() != "FPGA" {
		t.Error("socket strings wrong")
	}
	if Socket(5).String() != "Socket(5)" {
		t.Error("unknown socket string wrong")
	}
}

func TestValidateAcceptsBuiltins(t *testing.T) {
	for _, p := range []*Platform{XeonFPGA(), RawFPGA(), FutureIntegrated()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBrokenPlatforms(t *testing.T) {
	breakers := []func(*Platform){
		func(p *Platform) { p.FPGAClockHz = 0 },
		func(p *Platform) { p.FPGAClockHz = -1 },
		func(p *Platform) { p.FPGAAlone = BandwidthCurve{} },
		func(p *Platform) { p.CPUInterfered.Points[3] = -2 },
		func(p *Platform) { p.Coherence.RandReadRemoteNS = -1 },
		func(p *Platform) { p.Coherence.ProbeMemFraction = 1.5 },
	}
	for i, brk := range breakers {
		p := XeonFPGA()
		brk(p)
		if p.Validate() == nil {
			t.Errorf("broken platform %d validated", i)
		}
	}
	var nilP *Platform
	if nilP.Validate() == nil {
		t.Error("nil platform validated")
	}
}

func TestPlatformShape(t *testing.T) {
	p := XeonFPGA()
	if p.FPGAClockHz != 200e6 {
		t.Errorf("FPGAClockHz = %v, want 200 MHz", p.FPGAClockHz)
	}
}
