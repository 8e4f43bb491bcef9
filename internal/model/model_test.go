package model

import (
	"math"
	"testing"

	"fpgapart/platform"
)

func xeonParams(hist bool, ratio float64, n int64) Params {
	p := platform.XeonFPGA()
	return Params{
		FPGAClockHz:    p.FPGAClockHz,
		TupleWidth:     8,
		N:              n,
		Hist:           hist,
		ReadWriteRatio: ratio,
		Bandwidth:      p.FPGAAlone,
	}
}

func TestCircuitRateIsLinePerCycle(t *testing.T) {
	p := xeonParams(false, 1, 128e6)
	// 64 B line / 8 B tuples × 200 MHz = 1.6 billion tuples/s.
	if got := p.CircuitRate(); math.Abs(got-1.6e9) > 1e3 {
		t.Errorf("CircuitRate = %v, want 1.6e9", got)
	}
	p.TupleWidth = 64
	if got := p.CircuitRate(); math.Abs(got-200e6) > 1e3 {
		t.Errorf("CircuitRate(64B) = %v, want 2e8", got)
	}
}

func TestLatencyMatchesPaperConstant(t *testing.T) {
	p := xeonParams(false, 1, 128e6)
	// (5 + 65540 + 4) cycles at 5 ns.
	want := 65549.0 * 5e-9
	if got := p.Latency(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Latency = %v, want %v", got, want)
	}
}

func TestSection48Validation(t *testing.T) {
	// The paper derives 294/435/495 Mtuples/s for r = 2/1/0.5; our
	// calibrated curve must land within 2% of those.
	for _, v := range Validate(platform.XeonFPGA()) {
		rel := math.Abs(v.Predicted-v.Paper) / v.Paper
		if rel > 0.02 {
			t.Errorf("%s: predicted %.0f, paper %.0f (%.1f%% off)", v.Mode, v.Predicted/1e6, v.Paper/1e6, rel*100)
		}
	}
}

func TestMemoryBoundOnXeonFPGA(t *testing.T) {
	// On the real platform the memory term always limits (Section 4.6).
	for _, m := range []Mode{{}, {Hist: true}, {VRID: true}, {Hist: true, VRID: true}} {
		p := ForMode(m, platform.XeonFPGA(), 128e6)
		if p.MemoryRate() > p.ProcessRate() {
			t.Errorf("mode %+v should be memory-bound on Xeon+FPGA", m)
		}
	}
}

func TestCircuitBoundOnRawWrapper(t *testing.T) {
	// With the 25.6 GB/s wrapper the circuit term takes over: 1.6 Gtuples/s
	// in PAD mode, ~0.8 in HIST (Section 4.8).
	raw := platform.RawFPGA()
	pad := ForMode(Mode{}, raw, 128e6)
	if pad.MemoryRate() <= pad.ProcessRate() {
		t.Error("PAD mode should be circuit-bound at 25.6 GB/s")
	}
	if got := pad.TotalRate(); math.Abs(got-1.6e9)/1.6e9 > 0.01 {
		t.Errorf("raw PAD rate = %v, want ~1.6e9", got)
	}
	hist := ForMode(Mode{Hist: true}, raw, 128e6)
	if got := hist.TotalRate(); math.Abs(got-0.8e9)/0.8e9 > 0.01 {
		t.Errorf("raw HIST rate = %v, want ~0.8e9", got)
	}
}

func TestLatencyHiddenForLargeN(t *testing.T) {
	// For sufficiently large N the latency term vanishes: process rate
	// approaches B_FPGA/f_mode.
	big := xeonParams(false, 1, 128e6)
	// (the paper derives 1.593e9 vs the 1.6e9 asymptote — a 0.4% gap).
	if got, want := big.ProcessRate(), big.CircuitRate(); math.Abs(got-want)/want > 0.01 {
		t.Errorf("latency not hidden at N=128e6: %v vs %v", got, want)
	}
	// For tiny N it matters.
	tiny := xeonParams(false, 1, 1000)
	if tiny.ProcessRate() > 0.1*tiny.CircuitRate() {
		t.Errorf("latency should dominate at N=1000: %v", tiny.ProcessRate())
	}
}

func TestHistHalvesProcessRate(t *testing.T) {
	pad := xeonParams(false, 1, 128e6)
	hist := xeonParams(true, 1, 128e6)
	ratio := pad.ProcessRate() / hist.ProcessRate()
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("PAD/HIST process rate ratio = %v, want 2", ratio)
	}
}

func TestRatioTable(t *testing.T) {
	cases := []struct {
		m    Mode
		want float64
	}{
		{Mode{Hist: true}, 2},
		{Mode{}, 1},
		{Mode{Hist: true, VRID: true}, 1},
		{Mode{VRID: true}, 0.5},
	}
	for _, c := range cases {
		if got := Ratio(c.m); got != c.want {
			t.Errorf("Ratio(%+v) = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestMemoryRateFormula(t *testing.T) {
	// Hand-check equation 6 with a flat curve: B = 8 GB/s, W = 8, r = 1:
	// 8e9 / (8·2) = 500e6 tuples/s.
	p := Params{
		FPGAClockHz:    200e6,
		TupleWidth:     8,
		N:              1e6,
		ReadWriteRatio: 1,
		Bandwidth:      platform.BandwidthCurve{Points: []float64{8, 8}},
	}
	if got := p.MemoryRate(); math.Abs(got-500e6) > 1 {
		t.Errorf("MemoryRate = %v, want 5e8", got)
	}
}

func TestJoinPrediction(t *testing.T) {
	// Partitioning 128e6 tuples at ~435 Mtuples/s (PAD/RID) takes ~0.29 s.
	sec := JoinPrediction(Mode{}, platform.XeonFPGA(), 128e6)
	if sec < 0.25 || sec > 0.35 {
		t.Errorf("JoinPrediction = %v s, want ~0.29", sec)
	}
}

func TestWiderTuplesLowerRates(t *testing.T) {
	prev := math.Inf(1)
	for _, w := range []int{8, 16, 32, 64} {
		p := xeonParams(false, 1, 128e6)
		p.TupleWidth = w
		rate := p.TotalRate()
		if rate >= prev {
			t.Errorf("rate should fall with width: %d B → %v", w, rate)
		}
		prev = rate
	}
}
