package core

import "fpgapart/internal/simtrace"

// Component names on the trace timeline.
const (
	traceCompCircuit = "circuit"
	traceCompQPI     = "qpi"
)

// probe connects one run to a simtrace.Session. It is nil on untraced runs,
// so the hot loops pay a single nil check per cycle; when present, every
// counter and the tracer ring are preallocated, keeping the per-cycle path
// allocation-free.
//
// Cycle stamps are offset by the session's accumulated cycle total, so
// successive runs on the same circuit (R then S of a join, or repeated
// benchmark iterations) appear back to back on one timeline instead of
// overlapping at cycle zero.
type probe struct {
	sess   *simtrace.Session
	tr     *simtrace.Tracer
	window int64
	base   int64 // timeline offset: session cycles before this run

	cycles           *simtrace.Counter
	tuplesIn         *simtrace.Counter
	tuplesOut        *simtrace.Counter
	dummies          *simtrace.Counter
	stallsBackpress  *simtrace.Counter
	stallsHazard     *simtrace.Counter
	forwardedHazards *simtrace.Counter
	bubbles          *simtrace.Counter
	translations     *simtrace.Counter
	bramReads        *simtrace.Counter
	bramWrites       *simtrace.Counter

	fifo1Occ    *simtrace.Gauge
	finalOcc    *simtrace.Gauge
	combOutOcc  *simtrace.Gauge
	fifo1High   *simtrace.Gauge
	qpiBytesCyc *simtrace.Gauge // ×100, avoids floats in the registry
	bramUtil    *simtrace.Gauge // ×100

	// everyCycle, set by tests only, sees the run after each cycle.
	everyCycle func(*run)

	// partSizes buckets the per-partition valid tuple counts (log2) at the
	// end of each run — the skew profile the perf gate diffs across PRs.
	partSizes *simtrace.Histogram
}

// newProbe resolves the session's metrics and instruments the run's FIFOs
// and QPI end-point. Called by newRun once the run has the datapath.
func newProbe(sess *simtrace.Session, r *run) *probe {
	m := sess.Metrics
	p := &probe{
		sess:   sess,
		tr:     sess.Tracer,
		window: sess.Window(),

		cycles:           m.Counter("circuit.cycles"),
		tuplesIn:         m.Counter("circuit.tuples_in"),
		tuplesOut:        m.Counter("circuit.tuples_out"),
		dummies:          m.Counter("circuit.dummies"),
		stallsBackpress:  m.Counter("circuit.stalls.backpressure"),
		stallsHazard:     m.Counter("circuit.stalls.hazard"),
		forwardedHazards: m.Counter("circuit.hazards.forwarded"),
		bubbles:          m.Counter("circuit.hash.bubbles"),
		translations:     m.Counter("circuit.page_translations"),
		bramReads:        m.Counter("combiner.bram.reads"),
		bramWrites:       m.Counter("combiner.bram.writes"),

		fifo1Occ:    m.Gauge("fifo.stage1.occupancy"),
		finalOcc:    m.Gauge("fifo.final.occupancy"),
		combOutOcc:  m.Gauge("fifo.combiner_out.occupancy"),
		fifo1High:   m.Gauge("fifo.stage1.high_water"),
		qpiBytesCyc: m.Gauge("qpi.bytes_per_cycle_x100"),
		bramUtil:    m.Gauge("combiner.bram.port_util_x100"),

		partSizes: m.Histogram("partition.size_tuples"),
	}
	p.base = p.cycles.Value()

	r.instrument(p.fifo1Occ, p.finalOcc, p.combOutOcc)
	r.ep.Instrument(m.Counter("qpi.lines_read"), m.Counter("qpi.lines_written"))
	return p
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
	st := r.stats

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

	p.cycles.Add(st.Cycles)
	p.tuplesIn.Add(st.TuplesIn)
	p.tuplesOut.Add(st.TuplesOut)
	p.dummies.Add(st.Dummies)
	p.stallsBackpress.Add(st.StallsBackpressure)
	p.stallsHazard.Add(st.StallsHazard)
	p.forwardedHazards.Add(st.ForwardedHazards)
	p.bubbles.Add(st.HashPipelineBubbles)
	p.translations.Add(st.PageTranslations)
	p.bramReads.Add(st.CombinerBRAMReads)
	p.bramWrites.Add(st.CombinerBRAMWrites)

	// Bucket the per-partition output sizes (skipped for overflow-aborted
	// runs, whose counts are partial and whose abort point is already
	// reported via Stats.OverflowAtTuple).
	if !st.Overflowed {
		for _, n := range r.counts {
			p.partSizes.Observe(n)
		}
	}

	p.fifo1High.Observe(int64(st.MaxStage1FIFO))
	if st.Cycles > 0 {
		p.qpiBytesCyc.Observe((st.LinesRead + st.LinesWritten) * 64 * 100 / st.Cycles)
		// Each of the lanes combiners has one read and one write port.
		ports := int64(r.lanes) * st.Cycles
		p.bramUtil.Observe((st.CombinerBRAMReads + st.CombinerBRAMWrites) * 100 / (2 * ports))
	}
}
