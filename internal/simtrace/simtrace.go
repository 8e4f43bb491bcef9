// Package simtrace is the simulator's observability layer: a deterministic,
// cycle-stamped metrics registry and event tracer that the circuit simulator
// (internal/core), its hardware primitives (internal/fpga), the QPI
// end-point model (internal/qpi) and the distributed join (distjoin) report
// into.
//
// Two design rules govern everything here:
//
//  1. Determinism. Nothing in this package reads the host clock, draws
//     randomness, or iterates a map: every timestamp is a simulated cycle
//     count (or simulated microseconds for the distributed join), metric
//     snapshots are emitted in sorted name order, and trace JSON is written
//     field by field with a fixed layout. Two runs with the same seed
//     produce byte-identical snapshots, and byte-identical trace files
//     wherever every span is simulated: the circuit, partserver and cluster
//     traces, which the golden tests lock down. The join traces are the
//     exception — hashjoin's build/probe spans and distjoin's local_join
//     spans (and CPU-backend partition spans) carry the measured host
//     durations of their Result, so only those runs' Metrics replay.
//
//  2. Zero cost when disabled. Every hot-path entry point (Counter.Add,
//     Gauge.Observe, Tracer.Sample, …) is a nil-receiver no-op, so an
//     uninstrumented run pays one nil check per call site and allocates
//     nothing (guarded by testing.AllocsPerRun). When enabled, the ring
//     buffer and counters are preallocated, so the per-cycle path still
//     does not allocate.
//
// A Session bundles one run's Registry and Tracer. The trace exports to the
// Chrome trace-event JSON format, so `chrome://tracing` (or Perfetto's
// legacy loader) renders a partitioning run as a per-component timeline;
// one trace "microsecond" is one FPGA clock cycle.
package simtrace

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteFile creates path, hands it to write and closes it, reporting the
// first failure. It is how every CLI writes its trace, metrics, report and
// flight-recorder files.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DefaultSampleWindow is the cycle-window size at which the instrumented
// simulator emits periodic counter samples when the Session does not
// specify one. Powers of two keep the modulo cheap.
const DefaultSampleWindow = 256

// DefaultTraceCapacity is the event capacity of a Session's ring buffer:
// enough for phase spans plus windowed samples of multi-million-tuple runs
// without unbounded growth.
const DefaultTraceCapacity = 1 << 16

// Session bundles the metrics registry and event tracer threaded through
// one simulated run (or a sequence of runs on the same circuit — counters
// accumulate). The zero value of *Session (nil) disables all tracing.
type Session struct {
	Metrics *Registry
	Tracer  *Tracer

	// SampleWindow is the cycle-window granularity of periodic counter
	// samples; 0 means DefaultSampleWindow.
	SampleWindow int64
}

// NewSession returns a Session with a fresh registry and a ring buffer of
// DefaultTraceCapacity events.
func NewSession() *Session {
	return &Session{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(DefaultTraceCapacity),
	}
}

// Window returns the configured sample window, defaulting when unset.
// Safe on a nil Session (returns the default).
func (s *Session) Window() int64 {
	if s == nil || s.SampleWindow <= 0 {
		return DefaultSampleWindow
	}
	return s.SampleWindow
}

// Snapshot returns the session's metric snapshot, surfacing trace-ring
// overflow as a `trace.dropped_events` counter. The counter appears only
// when events were actually dropped, so snapshots of runs that fit the ring
// stay byte-identical to a plain Metrics.Snapshot() — goldens and BENCH
// baselines do not move until a run genuinely loses events. Safe on nil
// (returns nil).
func (s *Session) Snapshot() Snapshot {
	if s == nil {
		return nil
	}
	snap := s.Metrics.Snapshot()
	if d := s.Tracer.Dropped(); d > 0 {
		snap = snap.With(Metric{Name: "trace.dropped_events", Kind: KindCounter, Value: d})
	}
	return snap
}

// Summary renders the session as a human-readable text table: every metric
// in sorted name order, then the tracer's occupancy line. Safe on nil
// (returns a "tracing disabled" note).
func (s *Session) Summary() string {
	if s == nil {
		return "simtrace: disabled\n"
	}
	var b strings.Builder
	snap := s.Metrics.Snapshot()
	if len(snap) == 0 {
		b.WriteString("simtrace: no metrics recorded\n")
	} else {
		width := 0
		for _, m := range snap {
			if len(m.Name) > width {
				width = len(m.Name)
			}
		}
		for _, m := range snap {
			switch m.Kind {
			case KindGauge:
				fmt.Fprintf(&b, "%-*s  %12d  (high water %d)\n", width, m.Name, m.Value, m.Max)
			case KindHistogram:
				fmt.Fprintf(&b, "%-*s  %12d  (observations, max %d, %d buckets)\n",
					width, m.Name, m.Value, m.Max, len(m.Buckets))
			default:
				fmt.Fprintf(&b, "%-*s  %12d\n", width, m.Name, m.Value)
			}
		}
	}
	if s.Tracer != nil {
		fmt.Fprintf(&b, "trace: %d events recorded (%d dropped, capacity %d)\n",
			s.Tracer.Len(), s.Tracer.Dropped(), s.Tracer.Cap())
		if d := s.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(&b, "WARNING: trace ring overflowed — %d oldest events were overwritten; causal analysis over this trace is incomplete (raise the tracer capacity)\n", d)
		}
	}
	return b.String()
}
