// Package partition is the public API of the library: data partitioners for
// in-memory relations, backed either by the host CPU (a measured,
// state-of-the-art software implementation with software-managed buffers)
// or by a cycle-level simulation of the paper's FPGA partitioner circuit on
// the Xeon+FPGA platform model.
//
// Quick start:
//
//	rel, _ := workload.NewGenerator(1).Relation(workload.Random, 8, 1<<20)
//	p, _ := partition.NewFPGA(partition.FPGAOptions{
//	        Partitions: 8192,
//	        Hash:       true,
//	        Format:     partition.PadMode,
//	})
//	res, _ := p.Partition(rel)
//	fmt.Println(res.Elapsed(), res.Count(0))
//
// Both backends produce a Result with a unified view of the partitions — the
// tuples through Each, the stored words through Run — so downstream
// operators (e.g. package hashjoin) are agnostic to where the partitioning
// ran. Either backend returns every input tuple: a circuit run that cannot
// hold them all — a PAD overflow, or a key equal to the dummy key that pads
// the circuit's partial lines — is repeated on the CPU (Result.FellBack).
//
// A Result owns its buffers until the caller hands them back with
// Result.Release: the partitioner that made it then writes its next results
// into them, as the paper's circuit and CPU partitioner write into shared
// memory allocated once at start-up (Section 2.1). A Result that is never
// released is the caller's for good.
package partition

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/cpupart"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

// Format and Layout select the circuit's mode (Section 4.5 of the paper):
// its output strategy and its input layout, the circuit's own types.
type (
	Format = core.Format
	Layout = core.Layout
)

const (
	// HistMode does a histogram pass first: two passes, minimal memory,
	// robust against any skew.
	HistMode = core.HIST
	// PadMode preassigns fixed padded partition sizes: a single pass, but
	// skewed inputs can overflow, triggering the CPU fallback.
	PadMode = core.PAD
	// RowStore reads <key, payload> records (RID mode).
	RowStore = core.RID
	// ColumnStore reads a bare key column and emits <key, VRID> tuples
	// (VRID mode), halving read traffic.
	ColumnStore = core.VRID
)

// ParseMode maps the command-line spelling of a circuit mode — format "hist"
// or "pad", layout "rid" or "vrid" — to its Format and Layout.
func ParseMode(format, layout string) (Format, Layout, error) {
	f, ok := map[string]Format{"hist": HistMode, "pad": PadMode}[format]
	if !ok {
		return 0, 0, fmt.Errorf("partition: unknown format %q (want hist or pad)", format)
	}
	l, ok := map[string]Layout{"rid": RowStore, "vrid": ColumnStore}[layout]
	if !ok {
		return 0, 0, fmt.Errorf("partition: unknown layout %q (want rid or vrid)", layout)
	}
	return f, l, nil
}

// ErrOverflow is the cause (see FallbackError) of a PAD-mode run that
// overflowed a partition's padded size.
var ErrOverflow = errors.New("partition: partition overflowed its padded size (PAD mode)")

// ErrDummyKey is the cause (see FallbackError) of a circuit run whose input
// holds the dummy key that pads partial lines (Section 4.2): such a tuple is
// written but reads back as padding.
var ErrDummyKey = errors.New("partition: input tuples carry the circuit's dummy key")

// FallbackError is the error of a circuit run that needed the CPU fallback
// with the fallback disabled; it unwraps to its cause, ErrOverflow or
// ErrDummyKey. Stats describes the circuit run: a caller that reruns the job
// elsewhere still owes its simulated time — "the procedure has to start
// from the beginning" (Section 5.4).
type FallbackError struct {
	Stats core.Stats
	cause error
}

func (e *FallbackError) Error() string { return e.cause.Error() }
func (e *FallbackError) Unwrap() error { return e.cause }

// ErrSimulatorFault is reported (wrapped) when an invariant violation inside
// the simulator internals (internal/fpga's FIFOs and BRAMs, internal/qpi's
// bandwidth budget) panics during a run. The Partitioner implementations
// convert such panics into errors at the public API boundary, so a simulator
// bug degrades into a failed call instead of crashing the process. Test with
// errors.Is(err, ErrSimulatorFault).
var ErrSimulatorFault = errors.New("partition: simulator invariant fault")

// guardSimulator converts a panic escaping the simulator into an
// ErrSimulatorFault-wrapping error. Used via defer with a named return.
func guardSimulator(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrSimulatorFault, r)
	}
}

// Partitioner partitions relations.
type Partitioner interface {
	// Partition splits rel into the configured number of partitions.
	Partition(rel *workload.Relation) (*Result, error)
	// Name identifies the backend and mode, e.g. "fpga-PAD/RID".
	Name() string
}

// Result is a partitioned relation from either backend.
type Result struct {
	numPartitions int
	elapsed       time.Duration
	fellBack      bool

	cpu  cpupart.Result // the partitions, unless the circuit wrote them
	fpga *core.Output   // nil unless the circuit wrote the partitions

	// Stats carries the circuit run's statistics (zero value for CPU
	// runs). On a fallback run (FellBack) they describe the FPGA run the
	// CPU repeated: after a PAD overflow Overflowed is set and
	// OverflowAtTuple is how many tuples had entered the circuit when the
	// overflow was detected; otherwise the input held the dummy key.
	Stats core.Stats

	// owner is the partitioner the buffers go back to on Release, nil on a
	// fallback result; released is set by the first Release.
	owner    recycler
	released atomic.Bool
}

// recycler is a partitioner that takes back the buffers of its results.
type recycler interface {
	recycle(r *Result)
}

// releaseHook, set by tests only, runs on every result Release hands back,
// before its partitioner can reuse the buffers.
var releaseHook func(*Result)

// Release hands the result's buffers back to the partitioner that made it,
// whose next calls write into them instead of allocating: the result must
// not be read after. Release is idempotent and safe from any goroutine. It
// is a no-op on a fallback result (FellBack), and it never waits: if the
// partitioner is running a call on another goroutine, the buffers are left
// to the garbage collector.
func (r *Result) Release() {
	if r.owner == nil || r.released.Swap(true) {
		return
	}
	if releaseHook != nil {
		releaseHook(r)
	}
	r.owner.recycle(r)
}

// NumPartitions returns the fan-out.
func (r *Result) NumPartitions() int { return r.numPartitions }

// Elapsed returns the partitioning time: wall-clock for the CPU backend,
// simulated FPGA time (cycles at the platform clock) for the FPGA backend.
func (r *Result) Elapsed() time.Duration { return r.elapsed }

// FPGAWritten reports whether the partitions were written by the FPGA —
// which means a CPU consumer pays the coherence snoop penalty of Table 1,
// and Elapsed is simulated rather than measured.
func (r *Result) FPGAWritten() bool { return r.fpga != nil }

// FellBack reports whether the CPU repartitioned the relation after the
// circuit ran: a PAD overflow (Stats.Overflowed) or a dummy-keyed input
// tuple, which the circuit's output cannot hold.
func (r *Result) FellBack() bool { return r.fellBack }

// Count returns the number of tuples in partition p.
func (r *Result) Count(p int) int64 {
	if r.fpga == nil {
		return r.cpu.Count(p)
	}
	return r.fpga.Counts[p]
}

// TotalTuples returns the total tuple count.
func (r *Result) TotalTuples() int64 {
	var n int64
	for p := 0; p < r.numPartitions; p++ {
		n += r.Count(p)
	}
	return n
}

// SlotCount returns the number of addressable tuple slots in partition p.
// For FPGA-written partitions this includes dummy slots.
func (r *Result) SlotCount(p int) int {
	if r.fpga == nil {
		return int(r.cpu.Count(p))
	}
	return int(r.fpga.LinesUsed[p]) * r.fpga.TuplesPerLine()
}

// NumRuns returns how many contiguous runs of words partition p is stored
// in: one, for either backend.
func (r *Result) NumRuns(p int) int { return 1 }

// Run returns partition p as the words it is stored in, for consumers that
// read it in place: one slot every stride words, whose first word packs the
// key (low half) and the payload (high half). A CPU-written partition is its
// packed tuples (stride 1, hasDummy false); an FPGA-written one is its cache
// lines — a slot every TupleWidth/8 words, and the slots whose key is dummy
// are padding. The words belong to the Result and must not be written.
func (r *Result) Run(p, _ int) (words []uint64, stride int, dummy uint32, hasDummy bool) {
	if r.fpga == nil {
		return r.cpu.Partition(p), 1, 0, false
	}
	o := r.fpga
	return o.Lines[o.Base[p]*8 : (o.Base[p]+o.LinesUsed[p])*8], o.TupleWidth / 8, o.DummyKey, true
}

// PartitionChecksum returns an order-insensitive checksum over the valid
// tuples of partition p (a commutative sum of per-tuple murmur hashes, so
// backends that emit the same multiset in different orders agree). The
// distributed exchange uses it for end-to-end verification of partition
// pieces: the sender computes it before transmission, the receiver after
// reassembly, and a mismatch triggers a re-request of the piece.
func (r *Result) PartitionChecksum(p int) uint32 {
	var h uint32
	words, stride, dummy, hasDummy := r.Run(p, 0)
	for i := 0; i < len(words); i += stride {
		if t := words[i]; !hasDummy || uint32(t) != dummy {
			h += hashutil.Murmur32Finalizer(uint32(t) ^ hashutil.Murmur32Finalizer(uint32(t>>32)))
		}
	}
	return h
}

// Each iterates the valid tuples of partition p.
func (r *Result) Each(p int, fn func(key, payload uint32)) {
	if r.fpga == nil {
		for _, t := range r.cpu.Partition(p) {
			fn(uint32(t), uint32(t>>32))
		}
		return
	}
	r.fpga.Partition(p, func(k, pay uint32, _ []uint64) { fn(k, pay) })
}

// CPUOptions configures the CPU software partitioner.
type CPUOptions struct {
	Partitions int
	// Hash selects murmur hash partitioning; false selects radix bits.
	Hash bool
	// Threads ≤ 0 uses all cores.
	Threads int
	// Naive selects the tuple-at-a-time scatter of Code 1 (for ablations);
	// the default is the software-managed-buffer algorithm of Code 2.
	Naive bool
}

type cpuPartitioner struct {
	cfg cpupart.Config
	// scratch and rows are a call's working memory, kept for the
	// partitioner's next call: scratch with the buffers of released
	// results, rows with a key column or wide rows converted to the pairs
	// the partitioner reads. Whoever holds busy works in them; a call that
	// finds it taken — the partitioner is shared between goroutines —
	// allocates its own, and a Release that does lets go of the result's
	// buffers.
	busy    sync.Mutex
	scratch cpupart.Scratch
	rows    []uint64
}

func (p *cpuPartitioner) recycle(r *Result) {
	if p.busy.TryLock() {
		p.scratch.Recycle(&r.cpu)
		p.busy.Unlock()
	}
}

// NewCPU returns the software partitioner. Its options are checked when
// it partitions, so the error is always nil.
func NewCPU(opts CPUOptions) (Partitioner, error) {
	p := &cpuPartitioner{}
	return p, p.Reconfigure(opts)
}

// Reconfigure makes the partitioner's next calls partition by opts, in the
// scratch and the released buffers it keeps; like NewCPU, it leaves the
// check of opts to them, so the error is always nil. It must not run
// concurrently with a call.
func (p *cpuPartitioner) Reconfigure(opts CPUOptions) error {
	alg := cpupart.Buffered
	if opts.Naive {
		alg = cpupart.Naive
	}
	p.cfg = cpupart.Config{
		NumPartitions: opts.Partitions,
		Hash:          opts.Hash,
		Threads:       opts.Threads,
		Algorithm:     alg,
	}
	return nil
}

func (p *cpuPartitioner) Name() string {
	kind := "radix"
	if p.cfg.Hash {
		kind = "hash"
	}
	return fmt.Sprintf("cpu-%s-%v", kind, p.cfg.Algorithm)
}

// Partition partitions rel's <key, payload> pairs (see keyPayloadRows for
// what that means for a key column or wide rows).
func (p *cpuPartitioner) Partition(rel *workload.Relation) (result *Result, err error) {
	defer guardSimulator(&err)
	var sc *cpupart.Scratch
	var rows *[]uint64
	if p.busy.TryLock() {
		defer p.busy.Unlock()
		sc, rows = &p.scratch, &p.rows
	}
	res, err := cpuPartition(rel, p.cfg, sc, rows)
	if err != nil {
		return nil, err
	}
	res.owner = p
	return res, nil
}

// cpuPartition partitions rel on the CPU, working in sc and in rows (nil:
// allocating afresh).
func cpuPartition(rel *workload.Relation, cfg cpupart.Config, sc *cpupart.Scratch, rows *[]uint64) (*Result, error) {
	res, err := sc.PartitionTuples(keyPayloadRows(rel, rows), cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		numPartitions: res.NumPartitions,
		elapsed:       res.Elapsed,
		cpu:           res,
	}, nil
}

// FPGAOptions configures the simulated FPGA partitioner.
type FPGAOptions struct {
	Partitions int
	// TupleWidth in bytes: 8 (default), 16, 32 or 64. ColumnStore requires 8.
	TupleWidth int
	// Hash selects murmur hashing — free on the FPGA (Section 4.7).
	Hash   bool
	Format Format
	Layout Layout
	// PadFraction is PAD mode's headroom (default 0.15).
	PadFraction float64
	// Platform defaults to platform.XeonFPGA().
	Platform *platform.Platform
	// Interfered uses the reduced bandwidth curve measured when the CPU
	// hammers memory concurrently (Figure 2).
	Interfered bool
	// DisableFallback turns off the CPU fallback, surfacing a
	// *FallbackError instead.
	DisableFallback bool
	// FallbackThreads is the parallelism of the CPU fallback partitioner.
	FallbackThreads int

	// Trace attaches a simtrace session to the simulated circuit: runs
	// report cycle-level counters into Trace.Metrics and phase spans plus
	// windowed samples into Trace.Tracer. Successive Partition calls
	// accumulate into the session.
	// Nil (the default) disables tracing at zero per-cycle cost.
	Trace *simtrace.Session

	// Ablation switches (see core.Config).
	DisableForwarding    bool
	DisableWriteCombiner bool
}

type fpgaPartitioner struct {
	opts FPGAOptions
	// busy is held by a call, and by a Release that finds the circuit idle.
	busy    sync.Mutex
	circuit *core.Circuit
}

func (p *fpgaPartitioner) recycle(r *Result) {
	if p.busy.TryLock() {
		p.circuit.Recycle(r.fpga)
		p.busy.Unlock()
	}
}

// NewFPGA returns the simulated FPGA partitioner. Like Partition, it guards
// the circuit-construction path: an invariant panic inside the simulator
// internals surfaces as an error wrapping ErrSimulatorFault.
func NewFPGA(opts FPGAOptions) (p Partitioner, err error) {
	defer guardSimulator(&err)
	fp, err := newFPGA(opts)
	if err != nil {
		return nil, err
	}
	return fp, nil
}

// newFPGA builds the circuit opts describe, for plain and compressed
// input alike.
func newFPGA(opts FPGAOptions) (*fpgaPartitioner, error) {
	p := &fpgaPartitioner{}
	if err := p.Reconfigure(opts); err != nil {
		return nil, err
	}
	return p, nil
}

// Reconfigure loads the circuit opts describe onto the partitioner's
// circuit in place, as a new bitstream replaces the one an FPGA held: its
// next calls are those of a new partitioner of opts, written into the
// buffers it keeps, those of results released under the old options too.
// On an error the partitioner keeps its old options.
func (p *fpgaPartitioner) Reconfigure(opts FPGAOptions) (err error) {
	defer guardSimulator(&err)
	if opts.TupleWidth == 0 {
		opts.TupleWidth = 8
	}
	if opts.Platform == nil {
		opts.Platform = platform.XeonFPGA()
	}
	if err := opts.Platform.Validate(); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	cfg := core.Config{
		NumPartitions:        opts.Partitions,
		TupleWidth:           opts.TupleWidth,
		Hash:                 opts.Hash,
		Format:               opts.Format,
		Layout:               opts.Layout,
		PadFraction:          opts.PadFraction,
		DisableForwarding:    opts.DisableForwarding,
		DisableWriteCombiner: opts.DisableWriteCombiner,
		Trace:                opts.Trace,
	}
	clockHz, curve := opts.Platform.FPGAClockHz, opts.Platform.FPGAAlone
	if opts.Interfered {
		curve = opts.Platform.FPGAInterfered
	}
	p.busy.Lock()
	defer p.busy.Unlock()
	if p.circuit == nil {
		p.circuit, err = core.NewCircuit(cfg, clockHz, curve)
	} else {
		err = p.circuit.Reconfigure(cfg, clockHz, curve)
	}
	if err != nil {
		return err
	}
	p.opts = opts
	return nil
}

func (p *fpgaPartitioner) Name() string {
	return fmt.Sprintf("fpga-%v/%v", p.circuit.Config().Format, p.circuit.Config().Layout)
}

func (p *fpgaPartitioner) Partition(rel *workload.Relation) (result *Result, err error) {
	defer guardSimulator(&err)
	p.busy.Lock()
	defer p.busy.Unlock()
	out, stats, err := p.circuit.Partition(rel)
	return p.result(out, stats, err, func() (*workload.Relation, error) { return rel, nil })
}

// result is the Result of a circuit run: the partitions it wrote or, after a
// PAD overflow or over an input holding the dummy key, the CPU partitioner's
// over rows(), the relation the circuit read. The circuit run's (simulated)
// time is charged on top of the CPU's measured time, as the paper describes
// for PAD overflow: "the procedure has to start from the beginning"
// (Section 5.4).
func (p *fpgaPartitioner) result(out *core.Output, stats core.Stats, err error, rows func() (*workload.Relation, error)) (*Result, error) {
	var cause error
	switch {
	case errors.Is(err, core.ErrPartitionOverflow):
		cause = ErrOverflow
	case err != nil:
		return nil, err
	case out.DummyKeyed > 0:
		cause = ErrDummyKey
	default:
		return &Result{numPartitions: out.NumPartitions, elapsed: stats.Elapsed, fpga: out, Stats: stats, owner: p}, nil
	}
	if p.opts.DisableFallback {
		return nil, &FallbackError{Stats: stats, cause: cause}
	}
	rel, err := rows()
	if err != nil {
		return nil, err
	}
	res, err := cpuPartition(rel, cpupart.Config{
		NumPartitions: p.opts.Partitions,
		Hash:          p.opts.Hash,
		Threads:       p.opts.FallbackThreads,
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	res.elapsed += stats.Elapsed
	res.fellBack, res.Stats = true, stats
	return res, nil
}

// keyPayloadRows returns rel as the packed 8-byte <key, payload> rows the
// CPU partitioner consumes — the same pairs a reader of the FPGA's output
// sees: rel's own words when it already is such rows, else <key, VRID> for
// a key column (the circuit's VRID output) or <key, first payload word> for
// wide rows, written into *buf, which grows to fit (buf nil: into a new
// slice).
func keyPayloadRows(rel *workload.Relation, buf *[]uint64) []uint64 {
	if rel.Layout == workload.RowLayout && rel.Width == 8 {
		return rel.Data
	}
	var rows []uint64
	if buf != nil {
		rows = *buf
	}
	if cap(rows) < rel.NumTuples {
		rows = make([]uint64, rel.NumTuples)
		if buf != nil {
			*buf = rows
		}
	}
	rows = rows[:rel.NumTuples]
	for i := range rows {
		pay := uint32(i)
		if rel.Layout == workload.RowLayout {
			pay = rel.Payload(i)
		}
		rows[i] = uint64(pay)<<32 | uint64(rel.Key(i))
	}
	return rows
}
