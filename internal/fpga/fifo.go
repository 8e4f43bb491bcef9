// Package fpga provides the clocked-hardware building blocks the partitioner
// circuit simulator is assembled from: bounded FIFOs with back-pressure and
// pipeline registers. The components mirror the primitives the VHDL design
// uses (Section 4): the circuit is a composition of FIFOs between pipeline
// stages. Both hand out their slots by pointer, so a simulated clock edge
// moves indices, not payloads, and both are values, which a circuit holds
// in place.
package fpga

import (
	"fmt"

	"fpgapart/internal/simtrace"
)

// FIFO is a bounded first-in first-out queue. A full FIFO exerts
// back-pressure: CanPush reports false and the producer stage must stall.
// The partitioner propagates such back-pressure all the way to the QPI read
// requester (Section 4.3), so no FIFO ever overflows.
type FIFO[T any] struct {
	buf              []T
	head, tail, size int

	// HighWater records the maximum occupancy ever reached, for the
	// no-overflow invariant checks in tests.
	HighWater int

	// occ, when instrumented, observes the occupancy after every push —
	// several FIFOs may share one gauge, whose high-water mark then spans
	// them all (e.g. the lane FIFOs of the partitioner). Nil by default;
	// simtrace gauges are nil-receiver no-ops, so the uninstrumented path
	// costs one predictable branch.
	occ *simtrace.Gauge
}

// Instrument attaches a simtrace occupancy gauge to the FIFO. Passing nil
// detaches it.
func (f *FIFO[T]) Instrument(occ *simtrace.Gauge) { f.occ = occ }

// MakeFIFO returns an empty FIFO whose slots are ring, its capacity
// len(ring). It is a value and allocates nothing, so a circuit holds its
// FIFOs in place and carves their rings from one slab.
func MakeFIFO[T any](ring []T) FIFO[T] {
	if len(ring) == 0 {
		panic(fmt.Sprintf("fpga: FIFO capacity %d", len(ring)))
	}
	return FIFO[T]{buf: ring}
}

// Reset empties the FIFO and forgets its high-water mark, as a circuit reset
// does between runs. The gauge stays attached and the slots keep their stale
// elements, which Push hands out as such anyway.
func (f *FIFO[T]) Reset() { f.head, f.tail, f.size, f.HighWater = 0, 0, 0, 0 }

// Len returns the current occupancy. It is a reference: the circuit keeps
// its own occupancy counters, and its tests check them against this.
func (f *FIFO[T]) Len() int { return f.size }

// Empty reports whether the FIFO holds no elements.
func (f *FIFO[T]) Empty() bool { return f.size == 0 }

// CanPush reports whether a push would succeed.
func (f *FIFO[T]) CanPush() bool { return f.size < len(f.buf) }

// Push claims the next free slot and returns it for the producer to fill in
// place; the slot holds a stale element until then. Pushing into a full FIFO
// is a design bug — hardware would silently drop data — so the simulator
// panics to surface it.
//
//fpgavet:hotpath
func (f *FIFO[T]) Push() *T {
	if !f.CanPush() {
		panic("fpga: push into full FIFO (back-pressure violated)")
	}
	slot := &f.buf[f.tail]
	if f.tail++; f.tail == len(f.buf) {
		f.tail = 0
	}
	f.size++
	if f.size > f.HighWater {
		f.HighWater = f.size
	}
	f.occ.Observe(int64(f.size))
	return slot
}

// Front returns the oldest element in place, without removing it. The
// pointer stays readable after Drop until a later Push reuses the slot.
//
//fpgavet:hotpath
func (f *FIFO[T]) Front() *T {
	if f.Empty() {
		panic("fpga: front of empty FIFO")
	}
	return &f.buf[f.head]
}

// Drop removes the oldest element. The slot is not cleared: element types
// are plain data (tuples, cache lines), so there is nothing to release.
//
//fpgavet:hotpath
func (f *FIFO[T]) Drop() {
	if f.Empty() {
		panic("fpga: drop from empty FIFO")
	}
	if f.head++; f.head == len(f.buf) {
		f.head = 0
	}
	f.size--
}
