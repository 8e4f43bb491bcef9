package fpga

import "fmt"

// Reg is a pipeline register chain of fixed depth: a value shifted in
// emerges depth cycles later. It models the stages of the hash-function
// pipeline (Code 3), where each VHDL line is a register stage.
//
// The chain is a ring of depth+1 slots: the depth stages in flight plus the
// slot the producer fills this cycle. A clock edge moves an index, never a
// value; the slot falling out of the tail is next cycle's input slot.
type Reg[T any] struct {
	slots []T
	valid []bool
	in    int // slot the producer fills this cycle
	live  int // valid values in flight
}

// NewReg returns a register chain of the given depth (≥ 1).
func NewReg[T any](depth int) *Reg[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("fpga: register chain of depth %d", depth))
	}
	return &Reg[T]{slots: make([]T, depth+1), valid: make([]bool, depth+1)}
}

// Reset turns every stage into a bubble, as a circuit reset does between
// runs; the slots keep their stale values, which In hands out as such anyway.
func (r *Reg[T]) Reset() {
	clear(r.valid)
	r.in, r.live = 0, 0
}

// In returns the chain's input slot for this cycle, for the producer to
// fill in place before Shift. It holds a stale value until then.
//
//fpgavet:hotpath
func (r *Reg[T]) In() *T { return &r.slots[r.in] }

// Shift advances the chain one cycle: the input slot enters the chain (as a
// bubble unless inValid) and the value falling out of the tail is returned
// in place. out stays readable until the next cycle's input is written.
//
//fpgavet:hotpath
func (r *Reg[T]) Shift(inValid bool) (out *T, outValid bool) {
	r.valid[r.in] = inValid
	if inValid {
		r.live++
	}
	if r.in++; r.in == len(r.slots) {
		r.in = 0
	}
	outValid = r.valid[r.in]
	if outValid {
		r.live--
	}
	return &r.slots[r.in], outValid
}

// Drained reports whether no valid values remain in flight.
func (r *Reg[T]) Drained() bool { return r.live == 0 }
