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
// ran.
package partition

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/cpupart"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

// Format selects the FPGA partitioner's output strategy (Section 4.5 of the
// paper).
type Format int

const (
	// HistMode does a histogram pass first: two passes, minimal memory,
	// robust against any skew.
	HistMode Format = iota
	// PadMode preassigns fixed padded partition sizes: a single pass, but
	// skewed inputs can overflow, triggering the CPU fallback.
	PadMode
)

// Layout selects the FPGA partitioner's input layout (Section 4.5).
type Layout int

const (
	// RowStore reads <key, payload> records (RID mode).
	RowStore Layout = iota
	// ColumnStore reads a bare key column and emits <key, VRID> tuples
	// (VRID mode), halving read traffic.
	ColumnStore
)

// ParseMode maps the command-line spelling of a circuit mode — format "hist"
// or "pad", layout "rid" or "vrid" — to its Format and Layout.
func ParseMode(format, layout string) (Format, Layout, error) {
	var f Format
	switch format {
	case "hist":
		f = HistMode
	case "pad":
		f = PadMode
	default:
		return 0, 0, fmt.Errorf("partition: unknown format %q (want hist or pad)", format)
	}
	switch layout {
	case "rid":
		return f, RowStore, nil
	case "vrid":
		return f, ColumnStore, nil
	}
	return 0, 0, fmt.Errorf("partition: unknown layout %q (want rid or vrid)", layout)
}

// ErrOverflow is reported (wrapped in an *OverflowError) when a PAD-mode run
// overflowed a partition's padded size and no fallback was configured.
var ErrOverflow = errors.New("partition: partition overflowed its padded size (PAD mode)")

// OverflowError is the error of an overflowed PAD-mode run with the fallback
// disabled; it unwraps to ErrOverflow. Aborted describes the aborted FPGA
// attempt: a caller that reruns the job elsewhere still owes its simulated
// time — "the procedure has to start from the beginning" (Section 5.4).
type OverflowError struct {
	Aborted core.Stats
}

func (e *OverflowError) Error() string { return "partition: " + ErrOverflow.Error() }
func (e *OverflowError) Unwrap() error { return ErrOverflow }

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

	cpu  *cpupart.Result
	fpga *core.Output // nil unless the circuit wrote the partitions

	// Stats carries the circuit run's statistics (zero value for CPU
	// runs). On a fallback run (FellBack) they describe the aborted FPGA
	// attempt: Overflowed is set and OverflowAtTuple is how many tuples had
	// entered the circuit when the overflow was detected.
	Stats core.Stats
}

// NumPartitions returns the fan-out.
func (r *Result) NumPartitions() int { return r.numPartitions }

// Elapsed returns the partitioning time: wall-clock for the CPU backend,
// simulated FPGA time (cycles at the platform clock) for the FPGA backend.
func (r *Result) Elapsed() time.Duration { return r.elapsed }

// Simulated reports whether Elapsed is simulated rather than measured.
func (r *Result) Simulated() bool { return r.fpga != nil }

// FPGAWritten reports whether the partitions were written by the FPGA —
// which means a CPU consumer pays the coherence snoop penalty of Table 1.
func (r *Result) FPGAWritten() bool { return r.fpga != nil }

// FellBack reports whether a PAD overflow forced the CPU fallback.
func (r *Result) FellBack() bool { return r.fellBack }

// Count returns the number of valid tuples in partition p.
func (r *Result) Count(p int) int64 {
	if r.cpu != nil {
		return r.cpu.Count(p)
	}
	return r.fpga.Counts[p]
}

// TotalTuples returns the total valid tuple count.
func (r *Result) TotalTuples() int64 {
	var n int64
	for p := 0; p < r.numPartitions; p++ {
		n += r.Count(p)
	}
	return n
}

// ValidTuples returns the number of tuples a consumer actually observes
// through Each/Run. For CPU-written results this equals TotalTuples. For
// FPGA-written results it can be smaller: an input tuple whose key equals
// the circuit's dummy key is written to the output lines but is
// indistinguishable from flush padding, so every reader skips it — the
// histogram counts it, Each never yields it. Callers that must not lose
// tuples partition through Exact.
func (r *Result) ValidTuples() int64 {
	if r.cpu != nil {
		return r.TotalTuples()
	}
	var n int64
	for p := 0; p < r.numPartitions; p++ {
		words, stride, dummy, _ := r.Run(p, 0)
		for i := 0; i < len(words); i += stride {
			if uint32(words[i]) != dummy {
				n++
			}
		}
	}
	return n
}

// SlotCount returns the number of addressable tuple slots in partition p.
// For FPGA-written partitions this includes dummy slots.
func (r *Result) SlotCount(p int) int {
	if r.cpu != nil {
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
	if r.cpu != nil {
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
	if r.cpu != nil {
		for _, t := range r.cpu.Partition(p) {
			h += hashutil.Murmur32Finalizer(uint32(t) ^ hashutil.Murmur32Finalizer(uint32(t>>32)))
		}
		return h
	}
	o := r.fpga
	wpt := o.TupleWidth / 8
	lines := o.Lines[o.Base[p]*8 : (o.Base[p]+o.LinesUsed[p])*8]
	for i := 0; i < len(lines); i += wpt {
		if key := uint32(lines[i]); key != o.DummyKey {
			h += hashutil.Murmur32Finalizer(key ^ hashutil.Murmur32Finalizer(uint32(lines[i]>>32)))
		}
	}
	return h
}

// Each iterates the valid tuples of partition p.
func (r *Result) Each(p int, fn func(key, payload uint32)) {
	if r.cpu != nil {
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
	// scratch is a call's working memory, kept for the partitioner's next
	// call. Whoever holds busy works in it; a call that finds it taken — the
	// partitioner is shared between goroutines — allocates its own.
	busy    sync.Mutex
	scratch cpupart.Scratch
}

// NewCPU returns the software partitioner. Its options are checked when
// it partitions, so the error is always nil.
func NewCPU(opts CPUOptions) (Partitioner, error) {
	alg := cpupart.Buffered
	if opts.Naive {
		alg = cpupart.Naive
	}
	cfg := cpupart.Config{
		NumPartitions: opts.Partitions,
		Hash:          opts.Hash,
		Threads:       opts.Threads,
		Algorithm:     alg,
	}
	return &cpuPartitioner{cfg: cfg}, nil
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
	rel, err = keyPayloadRows(rel)
	if err != nil {
		return nil, err
	}
	var sc *cpupart.Scratch
	if p.busy.TryLock() {
		defer p.busy.Unlock()
		sc = &p.scratch
	}
	res, err := sc.Partition(rel, p.cfg)
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
	// DisableFallback turns off the PAD-overflow CPU fallback, surfacing
	// ErrOverflow instead.
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
	opts    FPGAOptions
	circuit *core.Circuit
}

// NewFPGA returns the simulated FPGA partitioner. Like Partition, it guards
// the circuit-construction path: an invariant panic inside the simulator
// internals surfaces as an error wrapping ErrSimulatorFault.
func NewFPGA(opts FPGAOptions) (p Partitioner, err error) {
	defer guardSimulator(&err)
	if opts.TupleWidth == 0 {
		opts.TupleWidth = 8
	}
	if opts.Platform == nil {
		opts.Platform = platform.XeonFPGA()
	}
	if err := opts.Platform.Validate(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	cfg := core.Config{
		NumPartitions:        opts.Partitions,
		TupleWidth:           opts.TupleWidth,
		Hash:                 opts.Hash,
		PadFraction:          opts.PadFraction,
		DisableForwarding:    opts.DisableForwarding,
		DisableWriteCombiner: opts.DisableWriteCombiner,
		Trace:                opts.Trace,
	}
	if opts.Format == PadMode {
		cfg.Format = core.PAD
	}
	if opts.Layout == ColumnStore {
		cfg.Layout = core.VRID
	}
	curve := opts.Platform.FPGAAlone
	if opts.Interfered {
		curve = opts.Platform.FPGAInterfered
	}
	circuit, err := core.NewCircuit(cfg, opts.Platform.FPGAClockHz, curve)
	if err != nil {
		return nil, err
	}
	return &fpgaPartitioner{opts: opts, circuit: circuit}, nil
}

func (p *fpgaPartitioner) Name() string {
	return fmt.Sprintf("fpga-%v/%v", p.circuit.Config().Format, p.circuit.Config().Layout)
}

func (p *fpgaPartitioner) Partition(rel *workload.Relation) (result *Result, err error) {
	defer guardSimulator(&err)
	out, stats, err := p.circuit.Partition(rel)
	if err != nil && errors.Is(err, core.ErrPartitionOverflow) {
		if !p.opts.DisableFallback {
			return p.fallback(rel, stats)
		}
		return nil, &OverflowError{Aborted: *stats}
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		numPartitions: out.NumPartitions,
		elapsed:       stats.Elapsed,
		fpga:          out,
		Stats:         *stats,
	}, nil
}

// fallback reruns the partitioning on the CPU after a PAD overflow. The
// aborted FPGA attempt's (simulated) time is charged on top of the measured
// CPU time, as the paper describes: "the procedure has to start from the
// beginning" (Section 5.4).
func (p *fpgaPartitioner) fallback(rel *workload.Relation, aborted *core.Stats) (*Result, error) {
	cpu := cpuPartitioner{cfg: cpupart.Config{
		NumPartitions: p.opts.Partitions,
		Hash:          p.opts.Hash,
		Threads:       p.opts.FallbackThreads,
	}}
	res, err := cpu.Partition(rel)
	if err != nil {
		return nil, err
	}
	res.elapsed += aborted.Elapsed
	res.fellBack = true
	res.Stats = *aborted
	return res, nil
}

// keyPayloadRows returns rel as the 8-byte <key, payload> rows the CPU
// partitioner consumes — the same pairs a reader of the FPGA's output sees:
// rel itself when it already is such rows, <key, VRID> for a key column
// (the circuit's VRID output), <key, first payload word> for wide rows.
func keyPayloadRows(rel *workload.Relation) (*workload.Relation, error) {
	if rel.Layout == workload.RowLayout && rel.Width == 8 {
		return rel, nil
	}
	rows, err := workload.NewRelation(workload.RowLayout, 8, rel.NumTuples)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rel.NumTuples; i++ {
		pay := uint32(i)
		if rel.Layout == workload.RowLayout {
			pay = rel.Payload(i)
		}
		rows.SetTuple(i, rel.Key(i), pay)
	}
	return rows, nil
}

// exactFallback names the CPU partitioner Exact fell back to.
type exactFallback struct{ Partitioner }

func (e exactFallback) Name() string { return e.Partitioner.Name() + " (dummy-key exact fallback)" }

// Exact partitions rel with p and verifies that a consumer observes every
// input tuple. The FPGA output encoding cannot represent a tuple whose key
// equals the circuit's dummy key: it is written but reads back as flush
// padding, so Each and every reader of Run skip it — a join silently misses
// matches, an aggregation a group. When Result.ValidTuples disagrees with the input
// size, rel is repartitioned by the CPU partitioner (hash and threads
// configure it), whose partition boundaries are exact for every key. The
// returned Partitioner is the one whose output is returned: p itself, or
// the CPU partitioner, named with a " (dummy-key exact fallback)" suffix.
func Exact(p Partitioner, rel *workload.Relation, hash bool, threads int) (*Result, Partitioner, error) {
	res, err := p.Partition(rel)
	if err != nil {
		return nil, nil, err
	}
	return exact(res, p, rel.NumTuples, func() (*workload.Relation, error) { return rel, nil }, hash, threads)
}

// exact is Exact's check on a result res that p partitioned from n tuples:
// res and p when a consumer observes all n, and otherwise the CPU
// partitioner's output over rows() and that partitioner.
func exact(res *Result, p Partitioner, n int, rows func() (*workload.Relation, error), hash bool, threads int) (*Result, Partitioner, error) {
	if res.ValidTuples() == int64(n) {
		return res, p, nil
	}
	rel, err := rows()
	if err != nil {
		return nil, nil, err
	}
	cpu, err := NewCPU(CPUOptions{Partitions: res.NumPartitions(), Hash: hash, Threads: threads})
	if err != nil {
		return nil, nil, err
	}
	res, err = cpu.Partition(rel)
	if err != nil {
		return nil, nil, err
	}
	return res, exactFallback{cpu}, nil
}
