// Package membudget models the bounded join memory of a robust hybrid hash
// join (Jahangiri et al., "Design Trade-offs for a Robust Dynamic Hybrid
// Hash Join"): a Budget tracks build/partition/spill-buffer reservations
// against a configurable byte cap, and a SpillStore accounts what later
// passes read back of the partitions that did not fit. Both are pure
// accounting — no
// clocks, no randomness — so same-seed runs make byte-identical decisions;
// the packages sit on the fpgavet deterministic path.
package membudget

import "fmt"

// Class labels what a reservation pays for, so exhaustion reports can say
// which phase ate the budget. Classes index a fixed array — no maps — to
// keep accounting on the deterministic path.
type Class int

const (
	// ClassBuild is hash-table state over the build side of a partition.
	ClassBuild Class = iota
	// ClassPartition is repartitioning scratch (histograms, output runs).
	ClassPartition
	// ClassSpill is the in-memory write buffer in front of the spill store.
	ClassSpill

	numClasses
)

// String names the class for error text and trace span labels.
func (c Class) String() string {
	switch c {
	case ClassBuild:
		return "build"
	case ClassPartition:
		return "partition"
	case ClassSpill:
		return "spill"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Budget tracks byte reservations against a fixed cap. A nil Budget (or a
// cap ≤ 0) is unlimited: every method is nil-safe and admits everything, so
// call sites need no branching between budgeted and unbudgeted runs.
// Budget is not goroutine-safe; the join executor accounts partitions in a
// deterministic sequential order precisely so the high-water mark does not
// depend on thread interleaving.
type Budget struct {
	capBytes int64
	inUse    int64
	high     int64
	byClass  [numClasses]int64
}

// New returns a budget capped at capBytes; capBytes ≤ 0 means unlimited.
func New(capBytes int64) *Budget {
	if capBytes <= 0 {
		return &Budget{}
	}
	return &Budget{capBytes: capBytes}
}

// Cap returns the byte cap; 0 means unlimited.
func (b *Budget) Cap() int64 {
	if b == nil {
		return 0
	}
	return b.capBytes
}

// Limited reports whether the budget actually constrains allocations.
func (b *Budget) Limited() bool { return b != nil && b.capBytes > 0 }

// MustReserve accounts n bytes of class c even past the cap. It models the
// allocations an adaptive join cannot avoid — e.g. the single build chunk of
// a broadcast join — while keeping the high-water mark honest about them.
func (b *Budget) MustReserve(c Class, n int64) {
	if b == nil {
		return
	}
	b.byClass[c] += n
	b.inUse += n
	if b.inUse > b.high {
		b.high = b.inUse
	}
}

// Release returns n bytes of class c to the budget. Releasing more than the
// class has reserved is a simulator bug, not an input condition, so it
// panics; public packages wrap the panic in ErrSimulatorFault at their API
// boundary.
func (b *Budget) Release(c Class, n int64) {
	if b == nil {
		return
	}
	if n > b.byClass[c] {
		panic(fmt.Sprintf("membudget: releasing %d %s bytes with only %d reserved", n, c, b.byClass[c]))
	}
	b.byClass[c] -= n
	b.inUse -= n
}

// HighWater returns the peak of the bytes reserved at once over the budget's lifetime.
func (b *Budget) HighWater() int64 {
	if b == nil {
		return 0
	}
	return b.high
}

// SpillStore accounts the read side of the simulated spill device: the
// bytes a recursing or broadcasting pass reads back of a partition that
// exceeded the budget. Like Budget it is pure bookkeeping and nil-safe.
type SpillStore struct {
	read int64
}

// Read accounts n bytes read back from the store.
func (s *SpillStore) Read(n int64) {
	if s == nil {
		return
	}
	s.read += n
}

// BytesRead returns the cumulative bytes read back.
func (s *SpillStore) BytesRead() int64 {
	if s == nil {
		return 0
	}
	return s.read
}
