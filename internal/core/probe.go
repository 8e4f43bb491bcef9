package core

import "fpgapart/internal/simtrace"

// Component names on the trace timeline.
const (
	traceCompCircuit = "circuit"
	traceCompQPI     = "qpi"
)

// probe connects one run to a simtrace.Session. It is nil on untraced runs,
// so the hot loops pay a single nil check per cycle; when present, the FIFO
// gauges and the QPI counters are attached and the tracer ring is
// preallocated, keeping the per-cycle path allocation-free. The run's
// totals go to the session's metrics once, in finish.
//
// Cycle stamps are offset by the session's accumulated cycle total, so
// successive runs on the same circuit (R then S of a join, or repeated
// benchmark iterations) appear back to back on one timeline instead of
// overlapping at cycle zero.
type probe struct {
	m      *simtrace.Registry
	tr     *simtrace.Tracer
	window int64
	base   int64 // timeline offset: session cycles before this run

	// everyCycle, set by tests only, sees the run after each cycle.
	everyCycle func(*run)
}

// newProbe instruments the run's FIFOs and QPI end-point. Called by newRun
// once the run has the datapath.
func newProbe(sess *simtrace.Session, r *run) *probe {
	m := sess.Metrics
	r.instrument(m.Gauge("fifo.stage1.occupancy"), m.Gauge("fifo.final.occupancy"), m.Gauge("fifo.combiner_out.occupancy"))
	r.ep.Instrument(m.Counter("qpi.lines_read"), m.Counter("qpi.lines_written"))
	return &probe{m: m, tr: sess.Tracer, window: sess.Window(), base: m.Counter("circuit.cycles").Value()}
}

// maybeSample emits the windowed counter samples when the run crosses a
// window boundary. Called once per cycle from the pass loops (only on
// traced runs).
func (p *probe) maybeSample(r *run) {
	if p.everyCycle != nil {
		p.everyCycle(r)
	}
	if r.stats.Cycles%p.window != 0 {
		return
	}
	ts := p.base + r.stats.Cycles
	p.tr.Sample(traceCompCircuit, "tuples_in", ts, r.stats.TuplesIn)
	p.tr.Sample(traceCompCircuit, "tuples_out", ts, r.stats.TuplesOut)
	p.tr.Sample(traceCompCircuit, "dummies", ts, r.stats.Dummies)
	p.tr.Sample(traceCompQPI, "lines_read", ts, r.stats.LinesRead)
	p.tr.Sample(traceCompQPI, "lines_written", ts, r.stats.LinesWritten)
	p.tr.Sample(traceCompCircuit, "fifo1_occupancy", ts, int64(r.queued))
}

// finish folds the run's Stats into the session counters, emits the phase
// spans (reconstructed from the fixed pass order), and computes the derived
// utilization gauges. Called exactly once per run, once Elapsed is set.
func (p *probe) finish(r *run) {
	st := &r.stats

	// Phase spans: HIST runs histogram → prefix sum → partition → flush;
	// PAD skips the first two. The partition pass duration is derived by
	// subtraction so an overflow-aborted pass (which never set
	// PartitionCycles) still gets a span.
	at := p.base
	if st.HistogramCycles > 0 {
		p.tr.Span(traceCompCircuit, "histogram_pass", at, st.HistogramCycles)
		at += st.HistogramCycles
	}
	if st.PrefixSumCycles > 0 {
		p.tr.Span(traceCompCircuit, "prefix_sum", at, st.PrefixSumCycles)
		at += st.PrefixSumCycles
	}
	partCycles := st.Cycles - st.HistogramCycles - st.PrefixSumCycles - st.FlushCycles
	if partCycles > 0 {
		p.tr.Span(traceCompCircuit, "partition_pass", at, partCycles)
		at += partCycles
	}
	if st.FlushCycles > 0 {
		p.tr.Span(traceCompCircuit, "flush", at, st.FlushCycles)
	}
	if st.Overflowed {
		p.tr.Instant(traceCompCircuit, "pad_overflow", p.base+st.Cycles)
	}

	m := p.m
	m.Counter("circuit.cycles").Add(st.Cycles)
	m.Counter("circuit.tuples_in").Add(st.TuplesIn)
	m.Counter("circuit.tuples_out").Add(st.TuplesOut)
	m.Counter("circuit.dummies").Add(st.Dummies)
	m.Counter("circuit.stalls.backpressure").Add(st.StallsBackpressure)
	m.Counter("circuit.stalls.hazard").Add(st.StallsHazard)
	m.Counter("circuit.hazards.forwarded").Add(st.ForwardedHazards)
	m.Counter("circuit.hash.bubbles").Add(st.HashPipelineBubbles)
	m.Counter("circuit.page_translations").Add(st.PageTranslations)
	m.Counter("combiner.bram.reads").Add(st.CombinerBRAMReads)
	m.Counter("combiner.bram.writes").Add(st.CombinerBRAMWrites)

	// Bucket the per-partition output sizes (skipped for overflow-aborted
	// runs, whose counts are partial and whose abort point is already
	// reported via Stats.OverflowAtTuple; the histogram is registered
	// either way).
	sizes := m.Histogram("partition.size_tuples")
	if !st.Overflowed {
		for _, n := range r.counts {
			sizes.Observe(n)
		}
	}

	m.Gauge("fifo.stage1.high_water").Observe(int64(st.MaxStage1FIFO))
	// Both utilizations are ×100, which keeps floats out of the registry.
	qpiBytes, bramUtil := m.Gauge("qpi.bytes_per_cycle_x100"), m.Gauge("combiner.bram.port_util_x100")
	if st.Cycles > 0 {
		qpiBytes.Observe((st.LinesRead + st.LinesWritten) * 64 * 100 / st.Cycles)
		// Each of the lanes combiners has one read and one write port.
		ports := int64(r.lanes) * st.Cycles
		bramUtil.Observe((st.CombinerBRAMReads + st.CombinerBRAMWrites) * 100 / (2 * ports))
	}
}
