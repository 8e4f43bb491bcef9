package core

import (
	"fmt"
	"time"

	"fpgapart/internal/fpga"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/memsys"
	"fpgapart/internal/qpi"
	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

// hashPipelineDepth is the latency of the hash function module in clock
// cycles: murmur hashing takes 5 pipeline stages (Code 3), 10 ns at 200 MHz.
const hashPipelineDepth = 5

// tup is one tuple in flight through the circuit, carrying its resolved
// partition index from the hash module onward.
type tup struct {
	words [8]uint64 // up to one full 64-byte tuple
	part  uint32
}

// group is one internal cycle's worth of tuples: the lanes of a cache line
// moving through the (lockstep) hash pipelines.
type group struct {
	t [8]tup
	n int
}

// outLine is an assembled cache line traveling from a write combiner to the
// write-back module: the partition it belongs to and how many of its tuple
// slots are valid (the rest carry dummy keys).
type outLine struct {
	words  [8]uint64
	part   uint32
	valid  uint8
	single bool // no-write-combiner ablation: one raw tuple, RMW write-back
}

// Circuit is a synthesized partitioner configuration bound to a platform
// link. Create one with NewCircuit and call Partition per relation; a
// Circuit is not safe for concurrent use (it is one piece of hardware).
type Circuit struct {
	cfg     Config
	clockHz float64
	curve   platform.BandwidthCurve

	// The datapath exists for the life of the bitstream (Section 4): the
	// hash pipeline register, the FIFOs, the combiners' control state and
	// the page table are built once and reset by every run. Only state whose
	// size depends on neither fan-out nor input is kept here; the BRAM
	// contents and the destination bookkeeping are the run's (see newRun).
	pipe   *fpga.Reg[group]
	fifo1  []*fpga.FIFO[tup]
	comb   []*combiner
	final  *fpga.FIFO[outLine]
	ptable *memsys.PageTable
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
	c := &Circuit{cfg: cfg, clockHz: clockHz, curve: curve}
	lanes := cfg.Lanes()
	c.pipe = fpga.NewReg[group](hashPipelineDepth)
	c.fifo1 = make([]*fpga.FIFO[tup], lanes)
	c.comb = make([]*combiner, lanes)
	for i := range c.fifo1 {
		c.fifo1[i] = fpga.NewFIFO[tup](cfg.Stage1FIFODepth)
		c.comb[i] = newCombiner(cfg, lanes, cfg.OutputTupleWidth()/8)
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
	r, err := c.newRun(rel, comp)
	if err != nil {
		return nil, nil, err
	}
	err = r.execute()
	// The BRAM contents die with the run: between runs a circuit holds
	// nothing whose size follows the fan-out (4.5 MB per circuit at 8192).
	for _, cb := range c.comb {
		cb.store, cb.fill = nil, nil
	}
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

	// The circuit's datapath, reset for this run: the hash pipelines
	// (lockstep across lanes), the per-lane first-stage FIFOs and write
	// combiners, and the write-back's final FIFO.
	pipe  *fpga.Reg[group]
	fifo1 []*fpga.FIFO[tup]
	comb  []*combiner
	final *fpga.FIFO[outLine]
	rr    int // write-back round-robin cursor
	// Occupancy, kept at every push and pop so that a stage that holds
	// nothing costs nothing: tuples in the first-stage FIFOs and lines in the
	// combiners' output FIFOs.
	queued, lines int

	// Destination bookkeeping (the two BRAMs of Section 4.3).
	capLines []int64
	used     []int64
	counts   []int64
	hist     []int64 // HIST mode first-pass histogram
	base     []int64 // first line of every partition, set by allocate

	out *Output

	// Shared-memory model.
	region *memsys.Region
	ptable *memsys.PageTable
	outOff int64 // byte offset of the output buffer in the region
}

// newRun resets the circuit for one execution and allocates what that
// execution alone owns: everything whose size follows the fan-out or the
// input — the combiners' bank and fill-rate BRAM contents and the
// destination bookkeeping, one slab each. The reset also covers a previous
// run that aborted on PAD overflow with tuples in flight.
func (c *Circuit) newRun(rel *workload.Relation, comp *rleFeed) (*run, error) {
	ep, err := qpi.New(c.clockHz, c.curve)
	if err != nil {
		return nil, err
	}
	cfg := &c.cfg
	r := &run{
		circuit: c, cfg: c.cfg, rel: rel, comp: comp, ep: ep, stats: &Stats{},
		lanes: cfg.Lanes(), wpt: cfg.OutputTupleWidth() / 8, tpl: 64 / cfg.OutputTupleWidth(),
		radix: cfg.RadixBits(), pipe: c.pipe, fifo1: c.fifo1, comb: c.comb, final: c.final,
	}
	if comp != nil {
		r.total = comp.n
		r.compPending = -1
	} else {
		r.total = int64(rel.NumTuples)
	}

	p := cfg.NumPartitions
	ints := make([]int64, 5*p)
	r.capLines, r.used, r.counts, r.hist, r.base = ints[:p:p], ints[p:2*p:2*p], ints[2*p:3*p:3*p], ints[3*p:4*p:4*p], ints[4*p:]
	store, fill := make([]uint64, r.lanes*p*8), make([]uint8, r.lanes*p)
	r.pipe.Reset()
	r.final.Reset()
	for i, cb := range r.comb {
		r.fifo1[i].Reset()
		cb.reset(store[i*p*8:(i+1)*p*8:(i+1)*p*8], fill[i*p:(i+1)*p:(i+1)*p])
	}
	if cfg.Trace != nil {
		r.pr = newProbe(cfg.Trace, r)
	} else {
		r.instrument(nil, nil, nil)
	}
	return r, nil
}

// instrument attaches the occupancy gauges of a traced run to the circuit's
// FIFOs; an untraced run detaches whatever a traced one before it left.
func (r *run) instrument(fifo1, final, combOut *simtrace.Gauge) {
	for i, f := range r.fifo1 {
		f.Instrument(fifo1)
		r.comb[i].out.Instrument(combOut)
	}
	r.final.Instrument(final)
}

// execute runs the configured passes.
func (r *run) execute() error {
	if r.cfg.Format == HIST {
		r.histogramPass()
		r.prefixSum()
	} else {
		r.padBases()
	}
	if err := r.allocate(); err != nil {
		return err
	}
	if err := r.partitionPass(); err != nil {
		return err
	}
	if err := r.flushPass(); err != nil {
		return err
	}
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
// counting tuples per partition. No data is written back (Section 4.5).
//
//fpgavet:hotpath
func (r *run) histogramPass() {
	r.ep.SetMix(1)
	start := r.stats.Cycles
	r.next = 0
	for {
		r.ep.Tick()
		out, outOK := r.pipe.Shift(r.nextGroup(r.pipe.In(), false))
		if outOK {
			for i := 0; i < out.n; i++ {
				r.hist[out.t[i].part]++
			}
		}
		r.stats.Cycles++
		if r.pr != nil {
			r.pr.maybeSample(r)
		}
		if r.next >= r.total && r.pipe.Drained() {
			break
		}
	}
	r.stats.HistogramCycles = r.stats.Cycles - start
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
// lines per partition). The scan costs one cycle per partition on the FPGA.
func (r *run) prefixSum() {
	slack := int64(r.lanes - 1)
	if r.cfg.DisableWriteCombiner {
		slack = 0 // tuple-granular RMW writes need no flush slack
	}
	for p := 0; p < r.cfg.NumPartitions; p++ {
		lines := (r.hist[p] + int64(r.tpl) - 1) / int64(r.tpl)
		r.capLines[p] = lines + slack
		if r.hist[p] == 0 {
			r.capLines[p] = 0
		}
	}
	r.stats.PrefixSumCycles = int64(r.cfg.NumPartitions)
	r.stats.Cycles += int64(r.cfg.NumPartitions)
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
	for i := range r.capLines {
		r.capLines[i] = lines
	}
}

// allocate lays the partitions out in shared memory and populates the
// FPGA-side page table.
func (r *run) allocate() error {
	var totalLines int64
	for p := range r.capLines {
		r.base[p] = totalLines
		totalLines += r.capLines[p]
	}
	r.out = &Output{
		NumPartitions: r.cfg.NumPartitions,
		TupleWidth:    r.cfg.OutputTupleWidth(),
		DummyKey:      DefaultDummyKey,
		Lines:         make([]uint64, totalLines*8),
		Base:          r.base,
		LinesUsed:     r.used,
		Counts:        r.counts,
	}
	// Fill with dummy keys so never-written slots of used regions (PAD mode
	// headroom) read as dummies, like bitstream-initialized memory.
	if lines := r.out.Lines; len(lines) > 0 {
		lines[0] = dummyWord
		for n := 1; n < len(lines); n *= 2 {
			copy(lines[n:], lines[:n])
		}
	}

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
	// The CPU initialised the output buffer (the dummy keys above): every
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
	return nil
}

// translate models the pipelined FPGA page-table lookup for one cache-line
// access at byte offset off in the run's virtual space.
func (r *run) translate(off int64) {
	if r.ptable == nil { // the histogram pass runs before allocate
		return
	}
	if _, err := r.ptable.Translate(off); err == nil {
		r.stats.PageTranslations++
	}
}

// nextGroup feeds the hash pipelines: it fills g, the pipeline's input
// register, with the next lane group and reports true if the input stage may
// issue this cycle; otherwise g is left alone and enters as a bubble. When
// feed is true the back-pressure rule of Section 4.3 applies — a new cache
// line is requested only if every first-stage FIFO has room for all groups
// in flight.
//
//fpgavet:hotpath
func (r *run) nextGroup(g *group, feed bool) bool {
	if r.next >= r.total {
		return false
	}
	if feed && r.queued > 0 { // empty FIFOs have room: Validate holds depth ≥ 8
		for _, f := range r.fifo1 {
			if f.Free() < hashPipelineDepth+1 {
				r.stats.StallsBackpressure++
				return false
			}
		}
	}
	if r.comp != nil {
		return r.nextCompressedGroup(g)
	}
	needLine := true
	if r.cfg.Layout == VRID {
		// 16 keys per input line; a new line is consumed every other group.
		needLine = r.next%16 == 0
	}
	if needLine {
		if !r.ep.CanRead() {
			r.stats.StallsBackpressure++
			return false
		}
		r.ep.Read()
		r.stats.LinesRead++
		r.translate(r.inputLineOffset())
	}
	n := int(r.total - r.next)
	if n > r.lanes {
		n = r.lanes
	}
	for i := 0; i < n; i++ {
		idx := r.next + int64(i)
		t := &g.t[i]
		var key uint32
		if r.cfg.Layout == VRID {
			key = r.rel.Keys[idx]
			t.words[0] = uint64(idx)<<32 | uint64(key) // <key, VRID>
		} else {
			src := r.rel.Data[int(idx)*r.wpt : int(idx+1)*r.wpt]
			for w, v := range src {
				t.words[w] = v
			}
			key = uint32(src[0])
		}
		t.part = hashutil.PartitionIndex32(key, r.radix, r.cfg.Hash)
	}
	g.n = n
	r.next += int64(n)
	r.stats.TuplesIn += int64(n)
	return true
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
			for i, in := range r.fifo1 {
				if !in.Empty() {
					took, emitted := r.comb[i].step(in, r.stats, &r.cfg, r.stats.Cycles)
					r.queued -= took
					r.lines += emitted
				}
			}
		}
		g := r.pipe.In()
		ok := r.nextGroup(g, true)
		if ok {
			// Five hash stages and a FIFO from now, lane i's combiner writes
			// into this bank line.
			for i := 0; i < g.n; i++ {
				prefetch(&r.comb[i].store[int(g.t[i].part)*8])
			}
		} else {
			r.stats.HashPipelineBubbles++
		}
		if out, outOK := r.pipe.Shift(ok); outOK {
			for i := 0; i < out.n; i++ {
				slot, t := r.fifo1[i].Push(), &out.t[i]
				slot.part = t.part
				for w := 0; w < r.wpt; w++ {
					slot.words[w] = t.words[w]
				}
			}
			r.queued += out.n
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
	for _, f := range r.fifo1 {
		r.stats.MaxStage1FIFO = max(r.stats.MaxStage1FIFO, f.HighWater)
	}
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
	for {
		r.ep.Tick()
		if !stalled || r.ep.CanWrite() {
			if r.lines > 0 || !r.final.Empty() {
				if err := r.writeBack(); err != nil {
					return err
				}
			}
			scansDone, stalled = true, !r.final.CanPush()
			for _, cb := range r.comb {
				if cb.canFlush() {
					r.lines += cb.flushStep(r.stats)
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
	r.stats.FlushCycles = r.stats.Cycles - start
	return nil
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
		if r.ep.CanWrite() && (!l.single || r.ep.CanRead()) {
			if l.single {
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
		l := out.Front()
		*r.final.Push() = *l
		out.Drop()
		r.lines--
		if r.rr = idx + 1; r.rr == r.lanes {
			r.rr = 0
		}
		// Up to eight link grants from now store commits the line here; a
		// line it will reject as a PAD overflow has no destination.
		if dst := (r.base[l.part] + r.used[l.part]) * 8; dst < int64(len(r.out.Lines)) {
			prefetch(&r.out.Lines[dst])
		}
	}
	return nil
}

// store commits one line (or one tuple, in the ablation) to the output
// buffer, updating the offset and count BRAMs and checking PAD overflow.
//
//fpgavet:hotpath
func (r *run) store(l *outLine) error {
	p := int(l.part)
	if l.single {
		// Tuple-granular RMW: place the tuple at its exact slot.
		tupleIdx := r.counts[p]
		line := tupleIdx / int64(r.tpl)
		slot := int(tupleIdx % int64(r.tpl))
		if line >= r.capLines[p] {
			return r.overflow()
		}
		dst := (r.out.Base[p] + line) * 8
		copy(r.out.Lines[dst+int64(slot*r.wpt):dst+int64((slot+1)*r.wpt)], l.words[:r.wpt])
		if line >= r.used[p] {
			r.used[p] = line + 1
		}
		r.counts[p]++
		r.stats.TuplesOut++
		r.stats.LinesWritten++
		r.markWritten(dst * 8)
		return nil
	}
	if r.used[p] >= r.capLines[p] {
		return r.overflow()
	}
	dst := (r.out.Base[p] + r.used[p]) * 8
	*(*[8]uint64)(r.out.Lines[dst:]) = l.words
	r.used[p]++
	r.counts[p] += int64(l.valid)
	r.stats.TuplesOut += int64(l.valid)
	r.stats.Dummies += int64(r.tpl) - int64(l.valid)
	r.stats.LinesWritten++
	r.markWritten(dst * 8)
	r.translate(r.outOff + dst*8)
	return nil
}

func (r *run) overflow() error {
	r.stats.Overflowed = true
	r.stats.OverflowAtTuple = r.stats.TuplesIn
	return ErrPartitionOverflow
}

// markWritten records the FPGA as last writer of the output line, the snoop
// filter state that later penalizes the CPU's build+probe (Section 2.2).
func (r *run) markWritten(byteOff int64) {
	// store bounds the line against capLines, so it lies inside the region.
	_ = r.region.MarkWritten(platform.FPGASocket, r.outOff+byteOff, 64)
}
