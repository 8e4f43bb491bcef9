package simtrace

import (
	"fmt"
	"io"
	"sort"
)

// Metric kinds, as they appear in snapshots and JSON.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotonically growing 64-bit metric (cycles, lines, stalls).
// All methods are nil-receiver no-ops so uninstrumented components can call
// through a nil pointer at zero cost.
type Counter struct {
	v int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time metric that also records its high-water mark
// (FIFO occupancy, fill levels). Nil-receiver methods are no-ops.
type Gauge struct {
	last int64
	max  int64
	seen bool
}

// Observe records v as the gauge's current value, updating the high-water
// mark.
func (g *Gauge) Observe(v int64) {
	if g == nil {
		return
	}
	g.last = v
	if !g.seen || v > g.max {
		g.max = v
		g.seen = true
	}
}

// Registry is a named set of counters and gauges. Creation order is
// remembered so snapshots never iterate a map (the fpgavet determinism
// contract); snapshots are additionally sorted by name so the creation
// order does not leak into golden files.
type Registry struct {
	order      []string
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// clash panics if name is already registered under a different kind.
func (r *Registry) clash(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != KindCounter {
		panic(fmt.Sprintf("simtrace: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != KindGauge {
		panic(fmt.Sprintf("simtrace: %q already registered as a gauge", name))
	}
	if _, ok := r.histograms[name]; ok && kind != KindHistogram {
		panic(fmt.Sprintf("simtrace: %q already registered as a histogram", name))
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil counter (whose methods are no-ops).
// Registering a name as both counter and gauge is a caller bug and panics.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.clash(name, KindCounter)
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// A nil registry returns a nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.clash(name, KindGauge)
	g := &Gauge{}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. A nil registry returns a nil histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.clash(name, KindHistogram)
	h := &Histogram{}
	r.histograms[name] = h
	r.order = append(r.order, name)
	return h
}

// HistogramBucket is one non-empty bucket of a snapshotted histogram:
// Count observations fell into bucket Exp (see BucketOf — Exp 0 holds
// non-positive values, Exp i ≥ 1 holds [2^(i-1), 2^i)).
type HistogramBucket struct {
	Exp   int   `json:"exp"`
	Count int64 `json:"count"`
}

// Metric is one snapshotted metric value. The json tags name the fields the
// deterministic writer emits — parsing a written snapshot back (the perf
// gate's read path) round-trips through them; the gated write path never
// uses encoding/json.
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`          // KindCounter, KindGauge or KindHistogram
	Value int64  `json:"value"`         // counter total, gauge's last observation, or histogram observation count
	Max   int64  `json:"max,omitempty"` // gauge high-water mark / histogram max observation (0 for counters)
	// Buckets holds a histogram's non-empty buckets in ascending exponent
	// order (nil for counters and gauges).
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, sorted by name.
type Snapshot []Metric

// Snapshot captures every metric, sorted by name. Safe on nil (empty).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)
	snap := make(Snapshot, 0, len(names))
	for _, name := range names {
		if c, ok := r.counters[name]; ok {
			snap = append(snap, Metric{Name: name, Kind: KindCounter, Value: c.v})
			continue
		}
		if h, ok := r.histograms[name]; ok {
			snap = append(snap, Metric{Name: name, Kind: KindHistogram, Value: h.count, Max: h.max, Buckets: h.sparse()})
			continue
		}
		g := r.gauges[name]
		snap = append(snap, Metric{Name: name, Kind: KindGauge, Value: g.last, Max: g.max})
	}
	return snap
}

// With returns a copy of the snapshot extended with extra metrics, re-sorted
// by name. The perf-gate runner uses it to append derived scalars (e.g.
// cycles per kilotuple) to a session's snapshot before writing a BENCH
// record. Duplicate names are a caller bug and panic.
func (s Snapshot) With(extra ...Metric) Snapshot {
	out := make(Snapshot, 0, len(s)+len(extra))
	out = append(out, s...)
	out = append(out, extra...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i := 1; i < len(out); i++ {
		if out[i].Name == out[i-1].Name {
			panic(fmt.Sprintf("simtrace: duplicate metric %q in Snapshot.With", out[i].Name))
		}
	}
	return out
}

// Get returns the metric registered under name.
func (s Snapshot) Get(name string) (Metric, bool) {
	// The snapshot is sorted by name; binary search keeps Get cheap for
	// assertion-heavy tests.
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Metric{}, false
}

// WriteJSON writes the snapshot as deterministic, diff-friendly JSON: one
// metric object per line, fields in fixed order, sorted by name. Byte
// identical across same-seed runs.
func (s Snapshot) WriteJSON(w io.Writer) error {
	bw := NewWriter(w, "simtrace: writing metrics snapshot")
	s.Write(bw, "")
	bw.Printf("\n")
	return bw.Flush()
}

// Write writes the same deterministic JSON object as WriteJSON into w, with
// every line after the first prefixed by indent and no trailing newline, so
// the snapshot can be embedded field by field inside a larger document (a
// BENCH record). Write(w, "") followed by a newline is WriteJSON.
func (s Snapshot) Write(w *Writer, indent string) {
	w.Printf("{\n%s  \"metrics\": [\n", indent)
	for i, m := range s {
		switch m.Kind {
		case KindGauge:
			w.Printf("%s    {\"name\": %q, \"kind\": %q, \"value\": %d, \"max\": %d}",
				indent, m.Name, m.Kind, m.Value, m.Max)
		case KindHistogram:
			w.Printf("%s    {\"name\": %q, \"kind\": %q, \"value\": %d, \"max\": %d, \"buckets\": [",
				indent, m.Name, m.Kind, m.Value, m.Max)
			for j, bk := range m.Buckets {
				if j > 0 {
					w.Printf(", ")
				}
				w.Printf("{\"exp\": %d, \"count\": %d}", bk.Exp, bk.Count)
			}
			w.Printf("]}")
		default:
			w.Printf("%s    {\"name\": %q, \"kind\": %q, \"value\": %d}",
				indent, m.Name, m.Kind, m.Value)
		}
		w.Printf("%s\n", Sep(i, len(s)))
	}
	w.Printf("%s  ]\n%s}", indent, indent)
}
