package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Span is one timed call recorded by the harness: around a public-API call
// (Parent 0) or around a shadow call that replays the layer below on the
// same inputs (Parent = the span of the op it replays). Shadow calls run
// after their op, so a child's interval lies after its parent's, not inside
// it; a layer's self time is its span's CPU minus its children's.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"` // the op's own span id: spans of one op share it
	Workload string `json:"workload"`
	Class    string `json:"class"`
	Round    int    `json:"round"`
	Func     string `json:"layer.func"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	CPUNS    int64  `json:"cpu_ns"`

	allocBytes, mallocs uint64
	cpu0                time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer (an untraced run) records nothing.
type tracer struct {
	workload string
	t0       time.Time
	spans    []Span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, class string, round int, fn string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Workload: t.workload,
		Class: class, Round: round, Func: fn})
	s := &t.spans[id-1]
	s.cpu0 = cpuNow()
	s.StartNS = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.CPUNS = int64(cpuNow() - s.cpu0)
}

// shadow runs f as a child span of parent named fn, also recording what it
// allocated.
func (t *tracer) shadow(parent int, fn string, f func() error) error {
	p := t.spans[parent-1]
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	id := t.begin(parent, p.Class, p.Round, fn)
	err := f()
	t.end(id)
	runtime.ReadMemStats(&ms1)
	s := &t.spans[id-1]
	s.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	s.mallocs = ms1.Mallocs - ms0.Mallocs
	return err
}

// best aggregates the spans of one class and function: the minimum wall and
// CPU time over the rounds, and the allocation of one call.
type best struct {
	n                   int
	wallS, cpuS         float64
	allocBytes, mallocs float64
}

// best returns the per-call minimum for (class, fn); class "" matches every
// class and then sums the per-class minima — the cost of one round.
func (t *tracer) best(class, fn string) best {
	per := map[string]*best{}
	var order []string
	for i := range t.spans {
		s := &t.spans[i]
		if s.Func != fn || (class != "" && s.Class != class) {
			continue
		}
		b := per[s.Class]
		if b == nil {
			b = &best{wallS: math.Inf(1), cpuS: math.Inf(1), allocBytes: math.Inf(1), mallocs: math.Inf(1)}
			per[s.Class] = b
			order = append(order, s.Class)
		}
		b.n++
		b.wallS = math.Min(b.wallS, float64(s.EndNS-s.StartNS)/1e9)
		b.cpuS = math.Min(b.cpuS, float64(s.CPUNS)/1e9)
		b.allocBytes = math.Min(b.allocBytes, float64(s.allocBytes))
		b.mallocs = math.Min(b.mallocs, float64(s.mallocs))
	}
	var sum best
	for _, c := range order {
		b := per[c]
		sum.n += b.n
		sum.wallS += b.wallS
		sum.cpuS += b.cpuS
		sum.allocBytes += b.allocBytes
		sum.mallocs += b.mallocs
	}
	return sum
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
