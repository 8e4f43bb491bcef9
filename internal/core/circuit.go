package core

import (
	"fmt"
	"time"

	"fpgapart/internal/fpga"
	"fpgapart/internal/memsys"
	"fpgapart/internal/qpi"
	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

// hashPipelineDepth is the latency of the hash function module in clock
// cycles: murmur hashing takes 5 pipeline stages (Code 3), 10 ns at 200 MHz.
const hashPipelineDepth = 5

// outLine is an assembled cache line traveling from a write combiner to the
// write-back module (in the no-write-combiner ablation, one raw tuple): the
// partition it belongs to, how many of its tuple slots are valid (the rest
// carry dummy keys) and, from the final FIFO on, the lane whose combiner
// assembled it.
type outLine struct {
	part  uint32
	valid uint8
	lane  uint8
}

// Circuit is a synthesized partitioner configuration bound to a platform
// link. Create one with NewCircuit and call Partition per relation; a
// Circuit is not safe for concurrent use (it is one piece of hardware).
type Circuit struct {
	cfg     Config
	clockHz float64

	// The datapath exists for the life of the bitstream (Section 4): the
	// hash pipeline register, the FIFOs, the combiners' control state, the
	// QPI end-point (every pass's SetMix empties its token buckets) and the
	// page table are built once and reset by every run. Only state whose
	// size depends on neither fan-out nor input is kept here; the BRAM
	// contents and the destination bookkeeping are the run's (see newRun).
	// The hash pipelines carry lane groups as their tuple counts: what each
	// tuple does was decided before the clock started (prepass).
	pipe   *fpga.Reg[int]
	comb   []*combiner
	final  *fpga.FIFO[outLine]
	ep     *qpi.Endpoint
	ptable *memsys.PageTable
	pl     placer // the placement side, its log and hand-off ring
}

// NewCircuit validates cfg and binds it to an FPGA clock and a QPI bandwidth
// curve (use platform.XeonFPGA().FPGAAlone for the paper's end-to-end
// numbers and platform.RawFPGA().FPGAAlone for the raw-throughput wrapper).
func NewCircuit(cfg Config, clockHz float64, curve platform.BandwidthCurve) (*Circuit, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clockHz <= 0 {
		return nil, fmt.Errorf("core: clock %v Hz", clockHz)
	}
	ep, err := qpi.New(clockHz, curve)
	if err != nil {
		return nil, err
	}
	c := &Circuit{cfg: cfg, clockHz: clockHz, ep: ep}
	lanes := cfg.Lanes()
	c.pipe = fpga.NewReg[int](hashPipelineDepth)
	c.comb = make([]*combiner, lanes)
	for i := range c.comb {
		c.comb[i] = newCombiner(cfg, lanes)
	}
	c.final = fpga.NewFIFO[outLine](8)
	return c, nil
}

// Config returns the circuit's (defaulted) configuration.
func (c *Circuit) Config() Config { return c.cfg }

// Partition runs the circuit over rel and returns the partitioned output and
// run statistics. In PAD mode the error is ErrPartitionOverflow if a
// partition outgrew its padded size; stats are still returned for the failed
// run (the fallback decision needs them).
func (c *Circuit) Partition(rel *workload.Relation) (*Output, *Stats, error) {
	if c.cfg.Layout == VRID && rel.Layout != workload.ColumnLayout {
		return nil, nil, fmt.Errorf("core: VRID mode requires a column-layout relation, got %v", rel.Layout)
	}
	if c.cfg.Layout == RID && rel.Layout != workload.RowLayout {
		return nil, nil, fmt.Errorf("core: RID mode requires a row-layout relation, got %v", rel.Layout)
	}
	if c.cfg.Layout == RID && rel.Width != c.cfg.TupleWidth {
		return nil, nil, fmt.Errorf("core: circuit synthesized for %dB tuples, relation has %dB", c.cfg.TupleWidth, rel.Width)
	}
	return c.partition(rel, nil)
}

// partition is one run of the circuit, over rel or, when comp is set, over
// the decompressor's key stream.
func (c *Circuit) partition(rel *workload.Relation, comp *rleFeed) (*Output, *Stats, error) {
	r := c.newRun(rel, comp)
	defer c.pl.stop() // a panic in the cycle loop must not strand the placement
	err := r.execute()
	if lines := c.pl.end(err == nil); err == nil {
		r.out.Lines = lines
	}
	r.stats.PageTranslations += c.pl.translations
	// The BRAM contents and the flags die with the run: between runs a
	// circuit holds nothing whose size follows the fan-out or the input.
	for _, cb := range c.comb {
		cb.reset(nil, nil, source{}, 0, 1)
	}
	c.pl.release()
	r.stats.Elapsed = time.Duration(float64(r.stats.Cycles) / c.clockHz * float64(time.Second))
	if r.pr != nil {
		r.pr.finish(r)
	}
	if err != nil {
		return nil, r.stats, err
	}
	return r.out, r.stats, nil
}

// run holds the mutable state of one partitioning execution.
type run struct {
	circuit *Circuit
	cfg     Config
	rel     *workload.Relation
	ep      *qpi.Endpoint
	stats   *Stats
	pr      *probe // nil unless cfg.Trace is set

	lanes int // tuples per internal cycle
	wpt   int // output words per tuple
	tpl   int // output tuples per line
	radix uint
	total int64 // input tuples

	// Input feed state.
	next int64
	// comp, when non-nil, replaces rel as the input: an RLE decompressor
	// stage in front of the hash pipelines (see compressed.go).
	comp *rleFeed
	// compPending is the number of compressed lines still to fetch for the
	// next group; -1 means "not yet computed".
	compPending int64

	// What the pre-pass decided for every tuple: its flag byte.
	flags []uint8

	// The circuit's datapath, reset for this run: the hash pipelines
	// (lockstep across lanes), the per-lane first-stage FIFOs (as the
	// combiners' occupancy counters) and write combiners, and the
	// write-back's final FIFO.
	pipe  *fpga.Reg[int]
	comb  []*combiner
	final *fpga.FIFO[outLine]
	rr    int // write-back round-robin cursor
	// Occupancy, kept at every push and pop so that a stage that holds
	// nothing costs nothing: tuples in the first-stage FIFOs and lines in the
	// combiners' output FIFOs.
	queued, lines int
	// room is the first-stage occupancy up to which a lane still has room
	// for every group in flight (Section 4.3); stage1Max its high water, and
	// stage1Occ the traced run's occupancy gauge.
	room      int
	stage1Max int
	stage1Occ *simtrace.Gauge

	// Destination bookkeeping (the two BRAMs of Section 4.3), a record of
	// destWords per partition (see dest), and the Output's copies of it:
	// the first line of every partition (set by allocate), and the lines
	// written and valid tuples per partition (set by settle). hist, the
	// pre-pass's histogram in HIST mode, shares counts' words.
	dests              []int64
	base, used, counts []int64
	hist               []int64

	out *Output

	// Shared-memory model.
	region *memsys.Region
	ptable *memsys.PageTable
	outOff int64 // byte offset of the output buffer in the region

	// The placement side: per stored line (per tuple in the no-write-
	// combiner ablation) store records its destination in the log.
	pl *placer
}

// newRun resets the circuit for one execution and allocates what that
// execution alone owns: everything whose size follows the fan-out or the
// input — the combiners' fill-rate BRAM contents with the tuples' flags, and
// the destination bookkeeping, one slab each. The reset also covers a
// previous run that aborted on PAD overflow with tuples in flight.
func (c *Circuit) newRun(rel *workload.Relation, comp *rleFeed) *run {
	cfg := &c.cfg
	r := &run{
		circuit: c, cfg: c.cfg, rel: rel, comp: comp, ep: c.ep, stats: &Stats{},
		lanes: cfg.Lanes(), wpt: cfg.OutputTupleWidth() / 8, tpl: 64 / cfg.OutputTupleWidth(),
		radix: cfg.RadixBits(), pipe: c.pipe, comb: c.comb, final: c.final, pl: &c.pl,
		room: cfg.Stage1FIFODepth - hashPipelineDepth - 1,
	}
	if comp != nil {
		r.total = comp.n
		r.compPending = -1
	} else {
		r.total = int64(rel.NumTuples)
	}

	p := cfg.NumPartitions
	ints := make([]int64, (destWords+3)*p)
	r.dests, ints = ints[:destWords*p:destWords*p], ints[destWords*p:]
	r.base, r.used, r.counts = ints[:p:p], ints[p:2*p:2*p], ints[2*p:]
	r.hist = r.counts
	bram := make([]uint8, r.lanes*p+int(r.total))
	fill := bram[: r.lanes*p : r.lanes*p]
	r.flags = bram[r.lanes*p:]
	r.pipe.Reset()
	r.final.Reset()
	src := r.newSource()
	for i, cb := range r.comb {
		cb.reset(fill[i*p:(i+1)*p:(i+1)*p], r.flags, src, int64(i), int64(r.lanes))
	}
	r.pl.reset(r, fill)
	if cfg.Trace != nil {
		r.pr = newProbe(cfg.Trace, r)
	} else {
		r.instrument(nil, nil, nil)
		r.ep.Instrument(nil, nil)
	}
	return r
}

// instrument attaches the occupancy gauges of a traced run to the circuit's
// FIFOs; an untraced run detaches whatever a traced one before it left.
func (r *run) instrument(fifo1, final, combOut *simtrace.Gauge) {
	r.stage1Occ = fifo1
	for _, cb := range r.comb {
		cb.out.Instrument(combOut)
	}
	r.final.Instrument(final)
}

// execute runs the pre-pass and the configured passes. The output is laid
// out first, so that a placement goroutine allocates and dummy-fills it
// while the pre-pass (PAD) or the histogram pass (HIST) runs: HIST sizes it
// by the pre-pass's histogram, which the histogram pass only clocks.
func (r *run) execute() error {
	hist := r.cfg.Format == HIST
	if hist {
		r.prepass()
		r.prefixSum()
	} else {
		r.padBases()
	}
	if err := r.allocate(); err != nil {
		return err
	}
	r.pl.start(r.total)
	if hist {
		r.histogramPass()
	} else {
		r.prepass()
	}
	if err := r.partitionPass(); err != nil {
		return err
	}
	if err := r.flushPass(); err != nil {
		return err
	}
	r.settle()
	if got, want := r.out.TotalTuples(), r.total; got != want {
		return fmt.Errorf("core: internal error: %d tuples out, %d in", got, want)
	}
	if !r.cfg.DisableForwarding && r.stats.StallsHazard != 0 {
		return fmt.Errorf("core: internal error: %d hazard stalls with forwarding enabled", r.stats.StallsHazard)
	}
	return nil
}

// inputReadFrac returns the QPI traffic mix of the main partitioning pass.
func (r *run) inputReadFrac() float64 {
	if r.cfg.DisableWriteCombiner {
		// Per tuple: 1/lanes input line read + 1 RMW line read + 1 line
		// write. Read bytes : write bytes = (1/lanes + 1) : 1.
		rd := 1.0/float64(r.lanes) + 1
		return rd / (rd + 1)
	}
	if r.comp != nil {
		// Reads only the compressed bytes; writes 8 B per tuple.
		cb := float64(r.comp.col.CompressedBytes())
		if total := cb + 8*float64(r.total); total > 0 {
			return cb / total
		}
		return 0.5 // empty column: mix is irrelevant
	}
	if r.cfg.Layout == VRID {
		// Reads 4 B per tuple, writes 8 B per tuple: r = 0.5.
		return 1.0 / 3.0
	}
	// RID single pass: reads and writes the same volume: r = 1.
	return 0.5
}

// histogramPass streams the relation through the hash pipelines once,
// counting tuples per partition. No data is written back (Section 4.5). The
// counts are the pre-pass's; the pass clocks the link, the decompressor and
// the pipelines' drain.
//
//fpgavet:hotpath
func (r *run) histogramPass() {
	r.ep.SetMix(1)
	start := r.stats.Cycles
	r.next = 0
	for {
		r.ep.Tick()
		n := r.nextGroup(false)
		*r.pipe.In() = n
		r.pipe.Shift(n > 0)
		r.stats.Cycles++
		if r.pr != nil {
			r.pr.maybeSample(r)
		}
		if r.next >= r.total && r.pipe.Drained() {
			break
		}
	}
	r.stats.HistogramCycles = r.stats.Cycles - start
	// The prefix sum's scan follows the pass: one cycle per partition.
	r.stats.PrefixSumCycles = int64(r.cfg.NumPartitions)
	r.stats.Cycles += r.stats.PrefixSumCycles
	r.next = 0
	if r.comp != nil {
		// Rewind the decompressor for the second pass.
		r.comp.rewind()
		r.compPending = -1
	}
}

// prefixSum turns the histogram into line-aligned partition base addresses.
// Each partition's region is its exact line count plus one potential partial
// line per write combiner (the flush can leave up to lanes partially filled
// lines per partition). The scan costs one cycle per partition on the FPGA,
// which histogramPass counts.
func (r *run) prefixSum() {
	slack := int64(r.lanes - 1)
	if r.cfg.DisableWriteCombiner {
		slack = 0 // tuple-granular RMW writes need no flush slack
	}
	for p, n := range r.hist {
		if n != 0 {
			r.dest(p)[destLines] = (n+int64(r.tpl)-1)/int64(r.tpl) + slack
		}
	}
}

// padBases preassigns every partition the fixed padded size of PAD mode.
func (r *run) padBases() {
	p := int64(r.cfg.NumPartitions)
	capTuples := (r.total + p - 1) / p
	capTuples = int64(float64(capTuples) * (1 + r.cfg.PadFraction))
	if capTuples < 1 {
		capTuples = 1
	}
	lines := (capTuples + int64(r.tpl) - 1) / int64(r.tpl)
	if !r.cfg.DisableWriteCombiner {
		lines += int64(r.lanes - 1)
	}
	for p := range r.base {
		r.dest(p)[destLines] = lines
	}
}

// allocate lays the partitions out in shared memory and populates the
// FPGA-side page table.
func (r *run) allocate() error {
	var totalLines int64
	for p := range r.base {
		d := r.dest(p)
		d[destBase], r.base[p] = totalLines, totalLines
		totalLines += d[destLines]
	}
	// The placement side allocates Lines, totalLines*8 words (placer.run).
	r.out = &Output{
		NumPartitions: r.cfg.NumPartitions,
		TupleWidth:    r.cfg.OutputTupleWidth(),
		DummyKey:      DefaultDummyKey,
		Base:          r.base,
		LinesUsed:     r.used,
		Counts:        r.counts,
	}
	r.pl.words = totalLines * 8

	// Shared-memory region: input buffer followed by the output buffer,
	// page-aligned, as the software would allocate through the Intel API.
	const pageBytes = memsys.PageBytes
	var inBytes int64
	if r.comp != nil {
		inBytes = int64(r.comp.col.CompressedBytes())
	} else {
		inBytes = int64(r.rel.Bytes())
	}
	r.outOff = (inBytes + pageBytes - 1) / pageBytes * pageBytes
	need := max(r.outOff+totalLines*64, pageBytes)
	pool, err := memsys.NewPool(need + pageBytes)
	if err != nil {
		return fmt.Errorf("core: shared-memory pool: %w", err)
	}
	if r.region, err = pool.Alloc(need); err != nil {
		return fmt.Errorf("core: shared-memory region: %w", err)
	}
	// The CPU initialised the output buffer (placer.run's dummy keys): every
	// line the FPGA can write starts out CPU-written, which is also what
	// sizes the region's snoop-filter state to the output range once.
	if err := r.region.MarkWritten(platform.CPUSocket, r.outOff, totalLines*64); err != nil {
		return fmt.Errorf("core: shared-memory region: %w", err)
	}
	// The circuit's page table only ever grows, by an entry per 4 MB of the
	// largest region it has seen.
	c := r.circuit
	if pages := int((need + pageBytes - 1) / pageBytes); c.ptable == nil || c.ptable.Capacity() < pages {
		if c.ptable, err = memsys.NewPageTable(pages); err != nil {
			return fmt.Errorf("core: FPGA page table: %w", err)
		}
	}
	r.ptable = c.ptable
	if err := r.ptable.Populate(r.region); err != nil {
		return fmt.Errorf("core: FPGA page table: %w", err)
	}
	r.pl.region, r.pl.ptable, r.pl.outOff = r.region, r.ptable, r.outOff
	return nil
}

// translate models the pipelined FPGA page-table lookup for one cache-line
// access at byte offset off in the run's virtual space.
func (r *run) translate(off int64) {
	if _, err := r.ptable.Translate(off); err == nil {
		r.stats.PageTranslations++
	}
}

// nextGroup feeds the hash pipelines: it returns the size of the lane group
// the input stage issues this cycle, 0 for a bubble. When feed is true the
// back-pressure rule of Section 4.3 applies — a new cache line is requested
// only if every first-stage FIFO has room for all groups in flight.
//
//fpgavet:hotpath
func (r *run) nextGroup(feed bool) int {
	if r.next >= r.total {
		return 0
	}
	if feed && r.queued > r.room { // no lane holds more than all of them
		for _, cb := range r.comb {
			if cb.queued > r.room {
				r.stats.StallsBackpressure++
				return 0
			}
		}
	}
	if r.comp != nil {
		return r.nextCompressedGroup()
	}
	needLine := true
	if r.cfg.Layout == VRID {
		// 16 keys per input line; a new line is consumed every other group.
		needLine = r.next%16 == 0
	}
	if needLine {
		if !r.ep.CanRead() {
			r.stats.StallsBackpressure++
			return 0
		}
		r.ep.Read()
		r.stats.LinesRead++
		if feed { // the histogram pass's reads are not counted as translated
			r.translate(r.inputLineOffset())
		}
	}
	n := int(min(r.total-r.next, int64(r.lanes)))
	r.next += int64(n)
	r.stats.TuplesIn += int64(n)
	return n
}

// inputLineOffset returns the byte offset of the cache line about to be read.
func (r *run) inputLineOffset() int64 {
	if r.cfg.Layout == VRID {
		return r.next * 4 / 64 * 64
	}
	return r.next * int64(r.cfg.TupleWidth) / 64 * 64
}

// partitionPass is the main pass: read, hash, combine, write back. A stage
// runs in a cycle only if it holds something.
//
//fpgavet:hotpath
func (r *run) partitionPass() error {
	r.ep.SetMix(r.inputReadFrac())
	start := r.stats.Cycles
	// TuplesIn was already counted by the histogram pass; reset so the
	// partition pass recounts (HIST reads the data twice but each tuple is
	// one logical input).
	r.stats.TuplesIn = 0
	var err error
	for {
		r.ep.Tick()
		if r.lines > 0 || !r.final.Empty() {
			if err = r.writeBack(); err != nil {
				break
			}
		}
		if r.queued > 0 {
			// A stalled combiner (DisableForwarding) holds its tuple at the
			// front of its FIFO, so a non-empty FIFO covers it.
			for _, cb := range r.comb {
				if cb.queued > 0 {
					took, emitted := cb.step(&r.cfg, r.stats.Cycles)
					r.queued -= took
					r.lines += emitted
				}
			}
		}
		n := r.nextGroup(true)
		if n == 0 {
			r.stats.HashPipelineBubbles++
		}
		*r.pipe.In() = n
		if out, outOK := r.pipe.Shift(n > 0); outOK {
			high := r.stage1Max
			for _, cb := range r.comb[:*out] {
				cb.queued++
				high = max(high, cb.queued)
				if r.stage1Occ != nil {
					r.stage1Occ.Observe(int64(cb.queued))
				}
			}
			r.stage1Max = high
			r.queued += *out
		}
		r.stats.Cycles++
		if r.pr != nil {
			r.pr.maybeSample(r)
		}
		// All in-flight tuples have settled into the combiner banks or
		// memory: the condition to start the flush.
		if r.next >= r.total && r.queued == 0 && r.lines == 0 && r.pipe.Drained() && r.final.Empty() {
			break
		}
	}
	r.stats.MaxStage1FIFO = max(r.stats.MaxStage1FIFO, r.stage1Max)
	r.fold()
	if err != nil {
		return err
	}
	r.stats.PartitionCycles = r.stats.Cycles - start
	return nil
}

// flushPass drains the partially filled lines left in the combiner BRAMs,
// padding them with dummy keys (Section 4.2). Each combiner scans its
// partition addresses sequentially, one per cycle; the write-back drains the
// results at up to one line per cycle under QPI back-pressure.
//
//fpgavet:hotpath
func (r *run) flushPass() error {
	if r.cfg.DisableWriteCombiner {
		return nil
	}
	start := r.stats.Cycles
	// stalled: the final FIFO is full and every combiner is done or holds a
	// partial line behind its full output FIFO. Until the link grants a
	// write, a cycle then moves nothing but the token buckets, the cycle
	// count and the trace window, so only those run.
	scansDone, stalled := false, false
	var err error
	for {
		r.ep.Tick()
		if !stalled || r.ep.CanWrite() {
			if r.lines > 0 || !r.final.Empty() {
				if err = r.writeBack(); err != nil {
					break
				}
			}
			scansDone, stalled = true, !r.final.CanPush()
			for _, cb := range r.comb {
				if cb.canFlush() {
					r.lines += cb.flushStep()
					stalled = stalled && !cb.canFlush()
				}
				scansDone = scansDone && cb.flushAddr >= cb.parts
			}
		}
		r.stats.Cycles++
		if r.pr != nil {
			r.pr.maybeSample(r)
		}
		if scansDone && r.lines == 0 && r.final.Empty() {
			break
		}
	}
	r.fold()
	if err != nil {
		return err
	}
	r.stats.FlushCycles = r.stats.Cycles - start
	return nil
}

// fold adds the combiners' port and hazard counters to the run's Stats, as
// every pass that clocks the combiners ends.
func (r *run) fold() {
	for _, cb := range r.comb {
		cb.fold(r.stats)
	}
}

// writeBack models the write-back module (Section 4.3): drain the final FIFO
// into memory under QPI write budget, and round-robin one line from the
// combiner output FIFOs into the final FIFO. The pass loops call it only
// when one of those FIFOs holds a line.
//
//fpgavet:hotpath
func (r *run) writeBack() error {
	if !r.final.Empty() {
		l := r.final.Front()
		// The no-write-combiner ablation needs a read-modify-write per tuple.
		single := r.cfg.DisableWriteCombiner
		if r.ep.CanWrite() && (!single || r.ep.CanRead()) {
			if single {
				r.ep.Read()
				r.stats.LinesRead++
			}
			r.ep.Write()
			err := r.store(l)
			r.final.Drop()
			if err != nil {
				return err
			}
		}
	}
	if r.lines > 0 && r.final.CanPush() {
		idx := r.rr // lines > 0: the scan ends at an output FIFO that holds one
		for r.comb[idx].out.Empty() {
			if idx++; idx == r.lanes {
				idx = 0
			}
		}
		out := r.comb[idx].out
		l := r.final.Push()
		*l = *out.Front()
		l.lane = uint8(idx)
		out.Drop()
		r.lines--
		if r.rr = idx + 1; r.rr == r.lanes {
			r.rr = 0
		}
	}
	return nil
}

// store commits one line (or one tuple, in the ablation) to the output
// buffer, updating the offset and count BRAMs and checking PAD overflow. The
// commit is an entry in the store log; the placement side moves the words,
// looks the output page up and marks the line FPGA-written.
//
//fpgavet:hotpath
func (r *run) store(l *outLine) error {
	d := r.dest(int(l.part))
	if r.cfg.DisableWriteCombiner {
		// Tuple-granular RMW: place the tuple at its exact slot.
		tupleIdx := d[destCount]
		line := tupleIdx / int64(r.tpl)
		slot := tupleIdx % int64(r.tpl)
		if line >= d[destLines] {
			return r.overflow()
		}
		dst := (d[destBase] + line) * 8
		r.pl.record(dst+slot*int64(r.wpt), l.lane)
		if line >= d[destUsed] {
			d[destUsed] = line + 1
		}
		d[destCount]++
		r.stats.TuplesOut++
		r.stats.LinesWritten++
		return nil
	}
	if d[destUsed] >= d[destLines] {
		return r.overflow()
	}
	dst := (d[destBase] + d[destUsed]) * 8
	r.pl.record(dst, l.lane)
	d[destUsed]++
	d[destCount] += int64(l.valid)
	r.stats.TuplesOut += int64(l.valid)
	r.stats.Dummies += int64(r.tpl) - int64(l.valid)
	r.stats.LinesWritten++
	return nil
}

// A partition's record in the destination bookkeeping: its region's first
// line and size in lines, the lines written to it and its valid tuples, 32
// bytes together, which is what a stored line touches.
const (
	destBase = iota
	destLines
	destUsed
	destCount
	destWords
)

// dest returns partition p's record.
func (r *run) dest(p int) *[destWords]int64 {
	return (*[destWords]int64)(r.dests[p*destWords:])
}

// settle copies the lines written and the valid tuples of every partition
// into the Output.
func (r *run) settle() {
	for p := range r.used {
		d := r.dest(p)
		r.used[p], r.counts[p] = d[destUsed], d[destCount]
	}
}

func (r *run) overflow() error {
	r.stats.Overflowed = true
	r.stats.OverflowAtTuple = r.stats.TuplesIn
	return ErrPartitionOverflow
}
