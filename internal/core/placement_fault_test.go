package core_test

import (
	"errors"
	"testing"

	"fpgapart/internal/core"
	"fpgapart/partition"
	"fpgapart/workload"
)

// TestPlacementPanicIsASimulatorFault: a panic on a circuit's placement
// goroutine reaches the partition package's fault boundary, which runs on
// the caller's goroutine, as ErrSimulatorFault.
func TestPlacementPanicIsASimulatorFault(t *testing.T) {
	rel, err := workload.NewGenerator(7).Relation(workload.Random, 8, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.NewFPGA(partition.FPGAOptions{Partitions: 2048, Hash: true, Format: partition.PadMode, PadFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetPlacementHook(func() { panic("injected placement fault") })()
	if _, err := p.Partition(rel); !errors.Is(err, partition.ErrSimulatorFault) {
		t.Fatalf("Partition with a panicking placement: %v, want ErrSimulatorFault", err)
	}
}
