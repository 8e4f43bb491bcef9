package qpi

import (
	"math"
	"testing"

	"fpgapart/platform"
)

func flatCurve(gbps float64) platform.BandwidthCurve {
	return platform.BandwidthCurve{Points: []float64{gbps, gbps}}
}

// transfers counts what a test drove through an end-point.
type transfers struct{ cycles, reads, writes int64 }

// drive ticks e for n cycles, reading and writing a line whenever the
// channel's budget allows, and counts the cycles and lines.
func drive(e *Endpoint, n int) transfers {
	var tr transfers
	for i := 0; i < n; i++ {
		e.Tick()
		tr.cycles++
		if e.CanRead() {
			e.Read()
			tr.reads++
		}
		if e.CanWrite() {
			e.Write()
			tr.writes++
		}
	}
	return tr
}

// gbps is the combined bandwidth tr realized at 200 MHz.
func (tr transfers) gbps() float64 {
	return float64(tr.reads+tr.writes) * LineBytes / (float64(tr.cycles) / 200e6) / 1e9
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, flatCurve(6.4)); err == nil {
		t.Error("zero clock accepted")
	}
	if _, err := New(-1, flatCurve(6.4)); err == nil {
		t.Error("negative clock accepted")
	}
}

func TestBalancedMixSustainsCurveBandwidth(t *testing.T) {
	// 6.4 GB/s at 200 MHz = 32 bytes per cycle = one 64 B line every 2
	// cycles, split evenly between reads and writes.
	e, err := New(200e6, flatCurve(6.4))
	if err != nil {
		t.Fatal(err)
	}
	e.SetMix(0.5)
	tr := drive(e, 100000)
	got := tr.gbps()
	if math.Abs(got-6.4) > 0.1 {
		t.Errorf("achieved %v GB/s, want ~6.4", got)
	}
	// Balanced mix must transfer balanced lines.
	ratio := float64(tr.reads) / float64(tr.writes)
	if math.Abs(ratio-1) > 0.01 {
		t.Errorf("read/write line ratio %v, want 1", ratio)
	}
}

func TestReadOnlyMixStarvesWrites(t *testing.T) {
	e, _ := New(200e6, flatCurve(7.1))
	e.SetMix(1)
	reads := 0
	for i := 0; i < 10000; i++ {
		e.Tick()
		if e.CanWrite() {
			t.Fatal("write budget accrued in read-only mix")
		}
		if e.CanRead() {
			e.Read()
			reads++
		}
	}
	if reads == 0 {
		t.Error("no reads completed")
	}
}

func TestVRIDMixSplitsOneToTwo(t *testing.T) {
	// Read fraction 1/3: one read line per two write lines.
	e, _ := New(200e6, flatCurve(6.0))
	e.SetMix(1.0 / 3.0)
	tr := drive(e, 300000)
	ratio := float64(tr.writes) / float64(tr.reads)
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("write/read ratio %v, want 2", ratio)
	}
}

func TestMixClamping(t *testing.T) {
	e, _ := New(200e6, flatCurve(6))
	e.SetMix(-1)
	for i := 0; i < 100; i++ {
		e.Tick()
	}
	if e.CanRead() || !e.CanWrite() {
		t.Errorf("SetMix(-1) is not write-only: can read %v, can write %v", e.CanRead(), e.CanWrite())
	}
	e.SetMix(2)
	for i := 0; i < 100; i++ {
		e.Tick()
	}
	if !e.CanRead() || e.CanWrite() {
		t.Errorf("SetMix(2) is not read-only: can read %v, can write %v", e.CanRead(), e.CanWrite())
	}
}

func TestBurstCap(t *testing.T) {
	e, _ := New(200e6, flatCurve(12.8)) // 64 B per cycle at balanced mix
	e.SetMix(0.5)
	// Idle for a long time, then check we cannot burst more than burstLines.
	for i := 0; i < 1000; i++ {
		e.Tick()
	}
	reads := 0
	for e.CanRead() {
		e.Read()
		reads++
	}
	if reads > burstLines {
		t.Errorf("burst of %d reads after idling, want ≤ %d", reads, burstLines)
	}
}

func TestReadWithoutBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Read without budget did not panic")
		}
	}()
	e, _ := New(200e6, flatCurve(6))
	e.Read()
}

func TestWriteWithoutBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Write without budget did not panic")
		}
	}()
	e, _ := New(200e6, flatCurve(6))
	e.Write()
}

func TestCurveMixDependence(t *testing.T) {
	// With the real platform curve, a write-heavy mix must sustain less
	// bandwidth than a read-heavy one.
	p := platform.XeonFPGA()
	run := func(mix float64) float64 {
		e, _ := New(200e6, p.FPGAAlone)
		e.SetMix(mix)
		return drive(e, 200000).gbps()
	}
	if writeHeavy, readHeavy := run(0.2), run(0.8); writeHeavy >= readHeavy {
		t.Errorf("write-heavy %v GB/s ≥ read-heavy %v GB/s", writeHeavy, readHeavy)
	}
}

func TestAchievedZeroBeforeTicks(t *testing.T) {
	e, _ := New(200e6, flatCurve(6))
	if e.CanRead() || e.CanWrite() {
		t.Error("budget before any cycle")
	}
}
