// Package hotfix is the known-bad fixture for the hotpath-alloc analyzer:
// a clocked component whose per-cycle call tree hides allocations one and
// two hops below the Tick/Cycle roots — including the interface boxing that
// testing.AllocsPerRun-style guards only catch for the exact entry points
// they exercise.
package hotfix

import "fmt"

// Pipe is a clocked component; its Tick and Cycle methods are hot roots.
type Pipe struct {
	buf   []uint64
	stats []int64
	n     int
	held  stage[lane]
}

// NewPipe is cold — construction-time allocation is exactly where hot-path
// state is supposed to be preallocated.
func NewPipe() *Pipe {
	return &Pipe{buf: make([]uint64, 0, 64), stats: make([]int64, 0, 16)}
}

// lane is one in-flight tuple: nine words, wider than a cache line.
type lane struct {
	words [8]uint64
	part  uint32
}

// Tick is hot by method name.
func (p *Pipe) Tick() {
	p.n++
	p.record(int64(p.n))
	p.check()
	var l lane
	p.latch(l)
	p.latchInPlace(&l)
	p.held.set(l)
	p.buf = append(p.buf, uint64(p.n)) // clean: field-backed slice, presized at construction
}

// record is one hop below the root; the boxing in its body is invisible to
// any per-function scan of Tick.
func (p *Pipe) record(v int64) {
	observe(v) // want hotpath-alloc
}

// latch takes the tuple by value: 72 bytes copied on every cycle.
func (p *Pipe) latch(l lane) { // want hotpath-alloc
	p.n += int(l.part)
}

// latchInPlace is the same stage reading the tuple where it lies; a 64-byte
// line by value is still within the limit.
func (p *Pipe) latchInPlace(l *lane) [8]uint64 { // clean: pointer in, one cache line out
	return l.words
}

// stage is a generic register; what set copies is its instantiation's size,
// which the declaration cannot bound.
type stage[T any] struct{ slot T }

func (s *stage[T]) set(v T) { // want hotpath-alloc
	s.slot = v
}

// observe takes an empty interface, so every concrete argument boxes.
func observe(v interface{}) { _ = v }

// check panics on invariant violation — panic arguments are exempt, a
// panicking tick is already a simulator fault.
func (p *Pipe) check() {
	if p.n < 0 {
		panic(fmt.Sprintf("hotfix: negative n %d", p.n)) // clean: panic argument
	}
}

// Cycle is hot by method name.
func (p *Pipe) Cycle() {
	p.stats = make([]int64, 0) // want hotpath-alloc
	p.flush()
	f := func() { p.n++ } // want hotpath-alloc
	f()
}

func (p *Pipe) flush() {
	var out []uint64
	out = append(out, p.buf...) // want hotpath-alloc
	_ = out
	msg := fmt.Sprintf("flushed %d", p.n) // want hotpath-alloc
	_ = msg
	_ = p.clone()
}

// clone is two hops below Cycle (via flush) — the address-of-composite
// allocates on every cycle.
func (p *Pipe) clone() *Pipe {
	return &Pipe{n: p.n} // want hotpath-alloc
}

// hotScan is hot by annotation, not by name or reachability.
//
//fpgavet:hotpath
func hotScan(vs []int64) int64 {
	seen := map[int64]bool{} // want hotpath-alloc
	var total int64
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			total += v
		}
	}
	return total
}

// Cold is unreachable from any root: its allocations are fine.
func Cold() []int64 {
	out := []int64{}
	out = append(out, hotScan(nil))
	return out
}
