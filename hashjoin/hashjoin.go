// Package hashjoin implements the partitioned (radix) hash join of
// Section 3.3 and its hybrid CPU+FPGA variant (Section 5): both relations
// are partitioned into cache-sized blocks — on the CPU or on the simulated
// FPGA — and each partition pair is joined with an in-cache build and probe.
//
// The hybrid join charges the simulated FPGA time for the partitioning and
// the measured CPU time for build+probe, inflated by the platform's
// cache-coherence penalty (Table 1): the CPU reads partitions last written
// by the FPGA, so its accesses are snooped on the FPGA socket.
package hashjoin

import (
	"errors"
	"fmt"
	"time"

	"fpgapart/internal/hashutil"
	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// ErrBadFanOut is reported (wrapped) when Options.Partitions is not a power
// of two ≥ 2 — the fan-out contract of every partitioner in the repo —
// instead of failing deep inside the partitioning pipeline. Test with
// errors.Is(err, ErrBadFanOut).
var ErrBadFanOut = errors.New("hashjoin: partitions must be a power of two ≥ 2")

// ErrSimulatorFault is reported (wrapped) when an invariant violation inside
// the simulator internals (joincore's budgeted executor, membudget's
// accounting) panics during a join. The public entry points convert such
// panics into errors, so a simulator bug degrades into a failed call instead
// of crashing the process. Test with errors.Is(err, ErrSimulatorFault).
var ErrSimulatorFault = errors.New("hashjoin: simulator invariant fault")

// guardSimulator converts a panic escaping the simulator into an
// ErrSimulatorFault-wrapping error. Used via defer with a named return.
func guardSimulator(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrSimulatorFault, r)
	}
}

// validateFanOut enforces the power-of-two fan-out contract at the API
// boundary.
func validateFanOut(n int) error {
	if !hashutil.IsPowerOfTwo(n) || n < 2 {
		return fmt.Errorf("hashjoin: Partitions = %d: %w", n, ErrBadFanOut)
	}
	return nil
}

// Options configures a join run.
type Options struct {
	// Partitions is the fan-out (power of two); the paper's sweet spot for
	// large relations is 8192.
	Partitions int
	// Threads is the build+probe (and CPU partitioning) parallelism;
	// ≤ 0 uses all cores.
	Threads int
	// Hash selects murmur hash partitioning; false selects radix bits.
	Hash bool
	// Format and Layout configure the FPGA partitioner in Hybrid joins.
	Format partition.Format
	Layout partition.Layout
	// PadFraction is the PAD-mode headroom of the FPGA partitioner.
	PadFraction float64
	// Trace attaches a simtrace session to the join: every path — CPU,
	// Hybrid and NonPartitioned — emits the same "join" phase spans
	// (partition_r, partition_s, build, probe), so degradation runs are
	// comparable backend-to-backend. Hybrid joins additionally hand the
	// session to the FPGA partitioner (cycle-level counters, circuit phase
	// spans, windowed samples), and budgeted joins emit their
	// spill/recurse/reverse/broadcast decisions. nil disables tracing.
	Trace *simtrace.Session
	// MemoryBudgetBytes caps the memory of each concurrent build: a
	// partition whose build side exceeds it is spilled, recursively
	// repartitioned with salted hashes, and — when a heavy hitter or the
	// recursion depth cap makes splitting hopeless — joined by a chunked
	// broadcast. Matches and Checksum are byte-identical to the
	// unconstrained join for any budget. ≤ 0 means unlimited.
	MemoryBudgetBytes int64
}

// Result reports a join run with its phase breakdown.
type Result struct {
	Matches  int64
	Checksum uint64

	// PartitionR and PartitionS are the partitioning times per relation
	// (measured for CPU, simulated for FPGA). For the hybrid join they
	// include any aborted-PAD + CPU-fallback cost.
	PartitionR time.Duration
	PartitionS time.Duration
	// Build and Probe are the measured build+probe times; for hybrid joins
	// they include the coherence snoop penalty.
	Build time.Duration
	Probe time.Duration

	// Total is the end-to-end join time.
	Total time.Duration

	// PartitionerName identifies how the inputs were partitioned.
	PartitionerName string
	// CoherencePenalized reports whether the Table 1 snoop penalty was
	// applied to Build and Probe.
	CoherencePenalized bool
	// FellBack reports that a PAD overflow made a side's partitioning fall
	// back to the CPU (partition.Result.Stats.Overflowed).
	FellBack bool
	// DummyKeyRepartition reports that an input contained tuples whose key
	// equals the FPGA's dummy key — unrepresentable in the FPGA output
	// encoding, they read back as padding — so that side fell back to the
	// CPU to keep the join exact.
	DummyKeyRepartition bool

	// Memory reports the adaptive behaviour of a budgeted join; nil when
	// Options.MemoryBudgetBytes was unset.
	Memory *MemoryStats

	Threads int
}

// MemoryStats summarizes how a budgeted join adapted to its memory budget:
// the executor's own record, named here for callers of this package.
type MemoryStats = joincore.BudgetStats

// PartitionTime returns the combined partitioning time.
func (r *Result) PartitionTime() time.Duration { return r.PartitionR + r.PartitionS }

// BuildProbeTime returns the combined build and probe time.
func (r *Result) BuildProbeTime() time.Duration { return r.Build + r.Probe }

// Join partitions R and S with the given partitioner and joins them. This is
// the generic entry point; CPU and Hybrid are convenience wrappers. Both
// sides' partitions are released to p when Join returns (the join keeps no
// view of them), so a caller that loops over one long-lived partitioner
// partitions into the same buffers every time. A panic escaping the
// simulator internals surfaces as an error wrapping ErrSimulatorFault.
func Join(r, s *workload.Relation, p partition.Partitioner, opts Options) (_ *Result, err error) {
	defer guardSimulator(&err)
	pr, err := p.Partition(r)
	if err != nil {
		return nil, fmt.Errorf("hashjoin: partitioning R: %w", err)
	}
	defer pr.Release()
	ps, err := p.Partition(s)
	if err != nil {
		return nil, fmt.Errorf("hashjoin: partitioning S: %w", err)
	}
	defer ps.Release()
	budget := membudget.New(opts.MemoryBudgetBytes)
	spill := &membudget.SpillStore{}
	bp, stats, err := joincore.BudgetedBuildProbe(pr, ps, joincore.BudgetConfig{
		Budget:  budget,
		Spill:   spill,
		Threads: opts.Threads,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Matches:             bp.Matches,
		Checksum:            bp.Checksum,
		PartitionR:          pr.Elapsed(),
		PartitionS:          ps.Elapsed(),
		Build:               bp.Build,
		Probe:               bp.Probe,
		PartitionerName:     p.Name(),
		FellBack:            pr.Stats.Overflowed || ps.Stats.Overflowed,
		DummyKeyRepartition: pr.FellBack() && !pr.Stats.Overflowed || ps.FellBack() && !ps.Stats.Overflowed,
		Threads:             bp.Threads,
	}
	// The partitions are FPGA-written when either side's are.
	if pr.FPGAWritten() || ps.FPGAWritten() {
		res.Build, res.Probe = platform.XeonFPGA().Coherence.JoinTime(bp.Build, bp.Probe, platform.FPGASocket)
		res.CoherencePenalized = true
	}
	res.Memory = budgeted(budget, stats)
	res.Total = res.PartitionR + res.PartitionS + res.Build + res.Probe
	emitMemoryTrace(opts.Trace, res.Memory)
	emitPhaseSpans(opts.Trace, res)
	return res, nil
}

// budgeted is the executor's stats as Result.Memory: nil when the budget is
// unlimited, so unbudgeted joins report no MemoryStats.
func budgeted(budget membudget.Budget, stats joincore.BudgetStats) *MemoryStats {
	if !budget.Limited() {
		return nil
	}
	return &stats
}

// emitPhaseSpans records the join's phase breakdown as "join" spans on a
// microsecond timeline, for every backend. Build and probe are measured
// host time on every backend, the partition phases are simulated only on
// the FPGA; the spans are a picture of one run, not a replay-exact
// artifact (the session's Metrics are). A nil session is a no-op.
func emitPhaseSpans(sess *simtrace.Session, res *Result) {
	if sess == nil {
		return
	}
	ts := int64(0)
	for _, ph := range []struct {
		name string
		dur  time.Duration
	}{
		{"partition_r", res.PartitionR},
		{"partition_s", res.PartitionS},
		{"build", res.Build},
		{"probe", res.Probe},
	} {
		us := ph.dur.Microseconds()
		sess.Tracer.Span("join", ph.name, ts, us)
		ts += us
	}
}

// emitMemoryTrace records every adaptive decision of a budgeted join as a
// "join.mem" span — one per decision, in the executor's deterministic
// order, on a virtual tuple-count timeline — plus the aggregate counters
// the memory perfbench suite gates. Only budgeted joins (mem non-nil) emit
// these, so unbudgeted baselines stay byte-identical.
func emitMemoryTrace(sess *simtrace.Session, mem *MemoryStats) {
	if sess == nil || mem == nil {
		return
	}
	ts := int64(0)
	for _, d := range mem.Decisions {
		dur := d.BuildTuples + d.ProbeTuples
		sess.Tracer.Span("join.mem", d.Action.String(), ts, dur)
		if d.Reversed {
			sess.Tracer.Instant("join.mem", "reverse", ts)
		}
		ts += dur
	}
	m := sess.Metrics
	m.Gauge("join.mem_budget_bytes").Observe(mem.BudgetBytes)
	m.Gauge("join.mem_high_water_bytes").Observe(mem.HighWaterBytes)
	m.Gauge("join.mem_max_depth").Observe(int64(mem.MaxDepth))
	m.Counter("join.mem_in_memory").Add(int64(mem.InMemory))
	m.Counter("join.mem_reversals").Add(int64(mem.Reversals))
	m.Counter("join.mem_spilled_partitions").Add(int64(mem.SpilledPartitions))
	m.Counter("join.mem_spilled_bytes").Add(mem.SpilledBytes)
	m.Counter("join.mem_spill_read_bytes").Add(mem.SpillReadBytes)
	m.Counter("join.mem_recursions").Add(int64(mem.Recursions))
	m.Counter("join.mem_broadcasts").Add(int64(mem.Broadcasts))
	m.Counter("join.mem_broadcast_chunks").Add(int64(mem.BroadcastChunks))
}

// CPU runs the pure-CPU radix hash join: parallel software partitioning
// (Code 2 with software-managed buffers) followed by build+probe.
func CPU(r, s *workload.Relation, opts Options) (_ *Result, err error) {
	defer guardSimulator(&err)
	if err := validateFanOut(opts.Partitions); err != nil {
		return nil, err
	}
	p, err := partition.NewCPU(partition.CPUOptions{
		Partitions: opts.Partitions,
		Hash:       opts.Hash,
		Threads:    opts.Threads,
	})
	if err != nil {
		return nil, err
	}
	return Join(r, s, p, opts)
}

// Hybrid runs the paper's hybrid join: partitioning on the (simulated) FPGA,
// build+probe on the CPU with the coherence penalty applied.
func Hybrid(r, s *workload.Relation, opts Options) (_ *Result, err error) {
	defer guardSimulator(&err)
	if err := validateFanOut(opts.Partitions); err != nil {
		return nil, err
	}
	p, err := partition.NewFPGA(partition.FPGAOptions{
		Partitions:      opts.Partitions,
		Hash:            opts.Hash,
		Format:          opts.Format,
		Layout:          opts.Layout,
		PadFraction:     opts.PadFraction,
		FallbackThreads: opts.Threads,
		Trace:           opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return Join(r, s, p, opts)
}

// NonPartitioned runs the global-hash-table baseline join without any
// partitioning phase; Options.Partitions is ignored. Under a memory budget
// the baseline's only graceful degradation is chunking the build side, with
// a plan-time role reversal so the smaller side builds.
func NonPartitioned(r, s *workload.Relation, opts Options) (_ *Result, err error) {
	defer guardSimulator(&err)
	budget := membudget.New(opts.MemoryBudgetBytes)
	spill := &membudget.SpillStore{}
	bp, stats, err := joincore.NonPartitionedBudgeted(r, s, opts.Threads, budget, spill)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Matches:         bp.Matches,
		Checksum:        bp.Checksum,
		Build:           bp.Build,
		Probe:           bp.Probe,
		Total:           bp.Elapsed,
		PartitionerName: "none",
		Memory:          budgeted(budget, stats),
		Threads:         bp.Threads,
	}
	emitMemoryTrace(opts.Trace, res.Memory)
	emitPhaseSpans(opts.Trace, res)
	return res, nil
}
