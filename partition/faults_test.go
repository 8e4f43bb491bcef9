package partition

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"fpgapart/platform"
	"fpgapart/workload"
)

func TestGuardSimulatorConvertsPanics(t *testing.T) {
	run := func(panicValue interface{}) error {
		err := func() (err error) {
			defer guardSimulator(&err)
			panic(panicValue)
		}()
		return err
	}
	for _, v := range []interface{}{
		"fpga: push into full FIFO (back-pressure violated)",
		"qpi: read without budget",
		errors.New("fpga: front of empty FIFO"),
	} {
		err := run(v)
		if err == nil {
			t.Fatalf("panic %v swallowed", v)
		}
		if !errors.Is(err, ErrSimulatorFault) {
			t.Errorf("error %v is not ErrSimulatorFault", err)
		}
		if !strings.Contains(err.Error(), "fpga") && !strings.Contains(err.Error(), "qpi") {
			t.Errorf("panic message lost: %v", err)
		}
	}
}

func TestGuardSimulatorNoopOnSuccess(t *testing.T) {
	err := func() (err error) {
		defer guardSimulator(&err)
		return nil
	}()
	if err != nil {
		t.Errorf("clean run reported %v", err)
	}
}

func TestPartitionChecksumDetectsDifferences(t *testing.T) {
	rel, err := workload.NewGenerator(11).Relation(workload.Random, 8, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewCPU(CPUOptions{Partitions: 16, Hash: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic: recompute agrees.
	for q := 0; q < 16; q++ {
		if res.PartitionChecksum(q) != res.PartitionChecksum(q) {
			t.Fatalf("partition %d checksum not deterministic", q)
		}
	}
	// Distinct partitions (virtually always) have distinct checksums.
	seen := map[uint32]int{}
	for q := 0; q < 16; q++ {
		seen[res.PartitionChecksum(q)]++
	}
	if len(seen) < 15 {
		t.Errorf("only %d distinct checksums over 16 partitions", len(seen))
	}
}

func TestPartitionChecksumAgreesAcrossBackends(t *testing.T) {
	// CPU- and FPGA-written partitions hold the same tuple multiset (in
	// backend-specific order), so the order-insensitive piece checksums
	// the exchange verifies must agree.
	rel, err := workload.NewGenerator(5).Relation(workload.Linear, 8, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewCPU(CPUOptions{Partitions: 8, Hash: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := NewFPGA(FPGAOptions{Partitions: 8, Hash: true, Format: HistMode})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cpu.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fpga.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		if cr.PartitionChecksum(q) != fr.PartitionChecksum(q) {
			t.Errorf("partition %d: CPU checksum %#x, FPGA %#x",
				q, cr.PartitionChecksum(q), fr.PartitionChecksum(q))
		}
	}
}

func TestNewFPGARejectsBrokenPlatform(t *testing.T) {
	bad := platform.XeonFPGA()
	bad.FPGAClockHz = 0
	if _, err := NewFPGA(FPGAOptions{Partitions: 8, Platform: bad}); err == nil {
		t.Error("zero-clock platform accepted")
	}
}

// returnsWithin runs call on a goroutine and fails t if it has not returned
// after a generous deadline: a circuit bound to a link that never grants a
// transfer would otherwise hang the test binary.
func returnsWithin(t *testing.T, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("call did not return: the circuit is stuck on its link")
		return nil
	}
}

func TestStarvedLinkIsRejected(t *testing.T) {
	rel := genRel(t, 1000, 5)
	for name, curve := range map[string]platform.BandwidthCurve{
		"zero": {Points: []float64{0, 0, 0}},
		"nan":  {Points: []float64{5, math.NaN(), 7}},
	} {
		plat := platform.XeonFPGA()
		plat.FPGAAlone = curve
		err := returnsWithin(t, func() error {
			p, err := NewFPGA(FPGAOptions{Partitions: 8, Platform: plat})
			if err != nil {
				return err
			}
			_, err = p.Partition(rel)
			return err
		})
		if err == nil {
			t.Errorf("%s curve: partitioned over a link that carries nothing", name)
		}
	}
}
