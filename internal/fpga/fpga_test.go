package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// push and pop wrap the in-place API for tests that care about queue order,
// not about where the payload lives.
func push[T any](f *FIFO[T], v T) { *f.Push() = v }

func pop[T any](f *FIFO[T]) T {
	v := *f.Front()
	f.Drop()
	return v
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestFIFOBasicOrder(t *testing.T) {
	f := NewFIFO[int](4)
	for i := 1; i <= 4; i++ {
		if !f.CanPush() {
			t.Fatalf("CanPush false at %d", i)
		}
		push(f, i)
	}
	if f.CanPush() {
		t.Error("CanPush true when full")
	}
	if f.Len() != 4 {
		t.Errorf("Len = %d", f.Len())
	}
	for i := 1; i <= 4; i++ {
		if *f.Front() != i {
			t.Fatalf("Front = %d, want %d", *f.Front(), i)
		}
		if pop(f) != i {
			t.Fatalf("Pop out of order at %d", i)
		}
	}
	if !f.Empty() {
		t.Error("not empty after draining")
	}
}

func TestFIFOWrapAround(t *testing.T) {
	f := NewFIFO[int](3)
	// Interleave pushes and pops so head wraps several times.
	next, expect := 0, 0
	for round := 0; round < 20; round++ {
		for f.CanPush() {
			push(f, next)
			next++
		}
		pop(f) // free one slot
		expect++
		push(f, next)
		next++
		for !f.Empty() {
			if got := pop(f); got != expect {
				t.Fatalf("round %d: got %d, want %d", round, got, expect)
			}
			expect++
		}
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	mustPanic(t, "push into full FIFO", func() {
		f := NewFIFO[int](1)
		push(f, 1)
		f.Push()
	})
	// Full again after the ring wrapped.
	mustPanic(t, "push into full wrapped FIFO", func() {
		f := NewFIFO[int](2)
		push(f, 1)
		pop(f)
		push(f, 2)
		push(f, 3)
		f.Push()
	})
}

func TestFIFOUnderflowPanics(t *testing.T) {
	mustPanic(t, "drop from empty FIFO", func() { NewFIFO[int](1).Drop() })
	mustPanic(t, "front of empty FIFO", func() { NewFIFO[int](1).Front() })
	mustPanic(t, "drop from drained FIFO", func() {
		f := NewFIFO[int](2)
		push(f, 1)
		f.Drop()
		f.Drop()
	})
}

func TestFIFOZeroCapacityPanics(t *testing.T) {
	mustPanic(t, "zero-capacity FIFO", func() { NewFIFO[int](0) })
}

func TestFIFOHighWater(t *testing.T) {
	f := NewFIFO[int](8)
	push(f, 1)
	push(f, 2)
	push(f, 3)
	pop(f)
	pop(f)
	pop(f)
	push(f, 4)
	if f.HighWater != 3 {
		t.Errorf("HighWater = %d, want 3", f.HighWater)
	}
}

func TestFIFOPropertyQueueSemantics(t *testing.T) {
	// Against a reference slice queue, any bounded push/pop sequence agrees.
	f := func(ops []bool) bool {
		fifo := NewFIFO[int](5)
		var ref []int
		n := 0
		for _, doPush := range ops {
			if doPush && fifo.CanPush() {
				push(fifo, n)
				ref = append(ref, n)
				n++
			} else if !doPush && !fifo.Empty() {
				got := pop(fifo)
				want := ref[0]
				ref = ref[1:]
				if got != want {
					return false
				}
			}
			if fifo.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// payload is wider than a cache line, like the circuit's lane groups: a
// slot handed out twice, or reused while still queued, shows as a torn or
// foreign value.
type payload struct {
	w   [9]uint64
	tag int
}

func makePayload(tag int) payload {
	var p payload
	for i := range p.w {
		p.w[i] = uint64(tag)*31 + uint64(i)
	}
	p.tag = tag
	return p
}

// TestFIFOPointerAPIMatchesSliceQueue drives the in-place API against a
// slice queue over random operation mixes and capacities 1–9, many times
// around the ring: the slot Push hands out is filled after the claim (as the
// circuit does), Front is read in place before and after Drop (Drop does not
// clear), and no slot handed out by Push aliases an element still queued.
func TestFIFOPointerAPIMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 9; capacity++ {
		f := NewFIFO[payload](capacity)
		var ref []payload
		queued := map[*payload]bool{}
		high := 0
		for op, tag := 0, 0; op < 4000; op++ {
			if rng.Intn(2) == 0 {
				if len(ref) == capacity {
					if f.CanPush() {
						t.Fatalf("cap %d: full FIFO reports room", capacity)
					}
					continue
				}
				slot := f.Push()
				if queued[slot] {
					t.Fatalf("cap %d op %d: Push handed out a slot that is still queued", capacity, op)
				}
				queued[slot] = true
				*slot = makePayload(tag)
				ref = append(ref, makePayload(tag))
				tag++
				if len(ref) > high {
					high = len(ref)
				}
			} else {
				if len(ref) == 0 {
					if !f.Empty() {
						t.Fatalf("cap %d: empty FIFO reports elements", capacity)
					}
					continue
				}
				front := f.Front()
				if *front != ref[0] {
					t.Fatalf("cap %d op %d: Front = tag %d, want tag %d", capacity, op, front.tag, ref[0].tag)
				}
				f.Drop()
				if *front != ref[0] {
					t.Fatalf("cap %d op %d: Drop disturbed the element it released", capacity, op)
				}
				delete(queued, front)
				ref = ref[1:]
			}
			if f.Len() != len(ref) || f.HighWater != high {
				t.Fatalf("cap %d op %d: Len/HighWater = %d/%d, want %d/%d",
					capacity, op, f.Len(), f.HighWater, len(ref), high)
			}
		}
	}
}

// shift drives one clock edge of the in-place register API with a value.
func shift[T any](r *Reg[T], in T, inValid bool) (T, bool) {
	if inValid {
		*r.In() = in
	}
	out, ok := r.Shift(inValid)
	return *out, ok
}

func TestRegLatency(t *testing.T) {
	r := NewReg[int](5) // the murmur pipeline depth
	var outputs []int
	for i := 0; i < 10; i++ {
		out, ok := shift(r, i, true)
		if ok {
			outputs = append(outputs, out)
		}
	}
	// First output appears after 5 cycles and values emerge in order.
	if len(outputs) != 5 {
		t.Fatalf("got %d outputs, want 5", len(outputs))
	}
	for i, v := range outputs {
		if v != i {
			t.Errorf("output %d = %d", i, v)
		}
	}
}

func TestRegBubbles(t *testing.T) {
	r := NewReg[int](2)
	shift(r, 1, true)
	shift(r, 0, false) // bubble
	out, ok := shift(r, 2, true)
	if !ok || out != 1 {
		t.Errorf("first emerge = %d,%v, want 1,true", out, ok)
	}
	out, ok = shift(r, 0, false)
	if ok {
		t.Errorf("bubble emerged as valid: %d", out)
	}
	out, ok = shift(r, 0, false)
	if !ok || out != 2 {
		t.Errorf("second emerge = %d,%v, want 2,true", out, ok)
	}
	if !r.Drained() {
		t.Error("register chain not drained after its last value emerged")
	}
	for i := 0; i < 3; i++ {
		if _, ok := shift(r, 0, false); ok {
			t.Error("drained chain emitted a value")
		}
	}
	if !r.Drained() {
		t.Error("register chain not drained after flushing")
	}
}

func TestRegDepthOnePanicsOnZero(t *testing.T) {
	mustPanic(t, "zero-depth register chain", func() { NewReg[int](0) })
}

// naiveReg is the textbook model the ring is checked against: every clock
// edge copies each stage into the next.
type naiveReg struct {
	stages []payload
	valid  []bool
}

func (r *naiveReg) shift(in payload, inValid bool) (payload, bool) {
	last := len(r.stages) - 1
	out, outValid := r.stages[last], r.valid[last]
	copy(r.stages[1:], r.stages[:last])
	copy(r.valid[1:], r.valid[:last])
	r.stages[0], r.valid[0] = in, inValid
	return out, outValid
}

func (r *naiveReg) drained() bool {
	for _, v := range r.valid {
		if v {
			return false
		}
	}
	return true
}

// TestRegRingMatchesShiftByCopy checks the ring register chain against the
// shift-by-copy model over random valid/bubble patterns at depths 1–8:
// same latency, same validity, same Drained every cycle. The producer fills
// In() in place and leaves it alone on a bubble, so stale slot contents are
// exercised, and the slot being filled never aliases the slot just emitted.
func TestRegRingMatchesShiftByCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for depth := 1; depth <= 8; depth++ {
		ring := NewReg[payload](depth)
		ref := &naiveReg{stages: make([]payload, depth), valid: make([]bool, depth)}
		density := []int{1, 2, 10}[depth%3] // bubble-heavy, even, valid-heavy
		for cycle := 0; cycle < 3000; cycle++ {
			inValid := rng.Intn(density+1) != 0
			if cycle > 2500 {
				inValid = false // drain
			}
			in := ring.In()
			if inValid {
				*in = makePayload(cycle)
			}
			out, outValid := ring.Shift(inValid)
			if out == in {
				t.Fatalf("depth %d cycle %d: emitted slot aliases the slot just filled", depth, cycle)
			}
			want, wantValid := ref.shift(makePayload(cycle), inValid)
			if outValid != wantValid || (outValid && *out != want) {
				t.Fatalf("depth %d cycle %d: out = tag %d valid %v, want tag %d valid %v",
					depth, cycle, out.tag, outValid, want.tag, wantValid)
			}
			if ring.Drained() != ref.drained() {
				t.Fatalf("depth %d cycle %d: Drained = %v, want %v", depth, cycle, ring.Drained(), ref.drained())
			}
		}
		if !ring.Drained() {
			t.Fatalf("depth %d: not drained after 500 bubbles", depth)
		}
	}
}
