package fpga

import "fmt"

// Reg is a pipeline register chain of fixed depth: a value shifted in
// emerges depth cycles later. It models the stages of the hash-function
// pipeline (Code 3), where each VHDL line is a register stage.
//
// The chain is a ring of depth+1 stages: the depth stages in flight plus
// the one the producer fills this cycle. A clock edge moves an index, never
// a value; the stage falling out of the tail is next cycle's input stage.
type Reg[T any] struct {
	stages []stage[T]
	in     int // stage the producer fills this cycle
	live   int // valid values in flight
}

// stage is one register of the chain and whether it holds a value or a
// bubble.
type stage[T any] struct {
	v     T
	valid bool
}

// MakeReg returns a register chain of the given depth (≥ 1): a value whose
// stages are one allocation.
func MakeReg[T any](depth int) Reg[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("fpga: register chain of depth %d", depth))
	}
	return Reg[T]{stages: make([]stage[T], depth+1)}
}

// Reset turns every stage into a bubble, as a circuit reset does between
// runs; the stages keep their stale values, which In hands out as such
// anyway.
func (r *Reg[T]) Reset() {
	for i := range r.stages {
		r.stages[i].valid = false
	}
	r.in, r.live = 0, 0
}

// In returns the chain's input slot for this cycle, for the producer to
// fill in place before Shift. It holds a stale value until then.
//
//fpgavet:hotpath
func (r *Reg[T]) In() *T { return &r.stages[r.in].v }

// Shift advances the chain one cycle: the input slot enters the chain (as a
// bubble unless inValid) and the value falling out of the tail is returned
// in place. out stays readable until the next cycle's input is written.
//
//fpgavet:hotpath
func (r *Reg[T]) Shift(inValid bool) (out *T, outValid bool) {
	r.stages[r.in].valid = inValid
	if inValid {
		r.live++
	}
	if r.in++; r.in == len(r.stages) {
		r.in = 0
	}
	tail := &r.stages[r.in]
	if tail.valid {
		r.live--
	}
	return &tail.v, tail.valid
}

// Drained reports whether no valid values remain in flight.
func (r *Reg[T]) Drained() bool { return r.live == 0 }
