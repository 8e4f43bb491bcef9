// Package partserver is the multi-tenant job scheduler of the
// production-scale system the ROADMAP aims at: it admits concurrent
// partition and join jobs and shards them across N simulated FPGA
// partitioner instances (internal/core circuits) and M CPU partitioner
// workers (internal/cpupart), the scale-out shape HBM-on-FPGA deployments
// take — many independent partitioner instances behind one scheduler.
//
// The scheduler runs on a deterministic virtual-time event loop: the clock
// is a simulated microsecond counter, never the host clock. The work is
// real — FPGA jobs run the cycle-level circuit simulator, CPU jobs run the
// measured software partitioner — and runs where it is dispatched, on the
// goroutine that steps the scheduler: the package starts no goroutine, and
// the instances overlap in virtual time, not on host threads. Every
// scheduling decision (admission, placement, batching, fault handling) is a
// pure function of the job trace, the configuration and the seed, because
// the virtual duration of each job is itself deterministic: simulated cycles
// for the FPGA, a calibrated-constant rate for the CPU. Two runs with the
// same seed and trace therefore produce byte-identical placement decisions,
// simtrace output and results. The package sits on the fpgavet deterministic
// path, which machine-enforces the no-wall-clock / no-global-rand /
// no-map-range discipline this rests on.
//
// Scheduling model, in one paragraph: jobs arrive at virtual times given by
// the trace and wait in an unbounded backlog until the bounded admission
// queue has room (backpressure delays admission, it never drops a job);
// admitted jobs are placed on free resources by the paper's analytical cost
// model (internal/model predicts the FPGA side, a calibrated constant rate
// predicts the CPU side), with seeded tie-breaking between equally good
// choices; consecutive queued jobs with the same circuit configuration are
// batched onto one FPGA instance to amortize the reconfiguration latency;
// and injected FPGA faults (internal/faults: per-job transient faults,
// fail-stop crashes, stragglers) as well as PAD-mode partition overflows
// degrade the affected jobs to CPU execution, mirroring the paper's
// Section 5.4 fallback.
//
// The loop is a Scheduler the caller steps (Submit, NextEventUS, Step); Run
// submits a whole trace and steps it until it has drained, and the cluster
// frontend interleaves the steps of several Schedulers on one clock.
package partserver

import (
	"errors"
	"fmt"

	"fpgapart/internal/faults"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/workload"
)

// ErrSimulatorFault is reported (wrapped) when an invariant violation inside
// the simulator internals panics during a scheduled run. Run converts such
// panics into errors at the public API boundary; a panic inside one job's
// execution is recovered per job (runJob) and surfaces as a failed (or
// CPU-degraded) job instead of ending the run. Test with
// errors.Is(err, ErrSimulatorFault).
var ErrSimulatorFault = errors.New("partserver: simulator invariant fault")

// guardSimulator converts a panic escaping the simulator into an
// ErrSimulatorFault-wrapping error. Used via defer with a named return.
func guardSimulator(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrSimulatorFault, r)
	}
}

const (
	// cpuDispatchUS is the fixed virtual overhead of a CPU execution. An
	// assumption (DESIGN §12): neither the paper nor benchmark/ measures it.
	cpuDispatchUS = 5
	// cpuRate is the CPU partitioning rate in tuples/s that predicts CPU
	// placements and charges CPU executions: a constant, as the scheduler
	// may not read the host clock. An assumption (DESIGN §12), between
	// Figure 4's single-threaded 320–420 M tuples/s and benchmark/'s
	// cpupart.ns_per_tuple (≈ 13 ns, 77 M tuples/s on a 2-core VM).
	cpuRate = 150e6
	// joinRate is the build+probe rate in tuples/s over CPU-written
	// partitions. An assumption (DESIGN §12): benchmark/'s
	// joincore.ns_per_probe_tuple (≈ 25 ns on workload A, |R| = |S|, on a
	// 2-core VM) is 80 M tuples/s of R and S.
	joinRate = 200e6
	// maxFPGARetries is how many times a transiently failed job is retried
	// on the FPGA pool before degrading to CPU.
	maxFPGARetries = 1
	// reconfigUS is the virtual cost of loading a different circuit
	// configuration onto an FPGA instance: partial reconfiguration, not a
	// full bitstream load. An assumption (DESIGN §12): the paper times none.
	reconfigUS = 200
	// abortFraction is the fraction of a job's virtual duration charged
	// when it is aborted mid-run by a fault or crash.
	abortFraction = 0.5
)

// Config describes one scheduler deployment: the resource pool, the
// admission queue, the batching and placement knobs, and the fault scenario.
type Config struct {
	// FPGAs is the number of simulated FPGA partitioner instances (default 2).
	FPGAs int
	// Workers is the number of CPU partitioner workers (default 1).
	Workers int

	// QueueDepth bounds the admission queue (default 8). Jobs arriving into
	// a full queue wait in the backlog — delayed, never dropped.
	QueueDepth int
	// BatchMax caps how many same-configuration jobs are dispatched to one
	// FPGA instance as a single batch (default 4). 1 disables batching.
	BatchMax int

	// Seed drives placement tie-breaking (default 1).
	Seed uint64

	// Faults optionally injects FPGA failures: DropProb/CorruptProb are
	// per-execution transient fault probabilities (the job is retried, then
	// degraded to CPU), Crashes fail-stop an instance after a fraction of
	// its fair share of the trace, Stragglers stretch an instance's virtual
	// durations. Link entries do not apply to the scheduler and are ignored.
	// CPU workers are fault-free.
	Faults *faults.Scenario

	// Trace attaches a simtrace session: the scheduler reports queue-depth
	// samples, per-job spans on per-resource timelines, utilization and
	// placement counters, and queue-wait/execution histograms. All emission
	// happens on the scheduler loop, in virtual-time order, so traces are
	// byte-identical across same-seed runs. Nil disables tracing.
	Trace *simtrace.Session

	// ReqTrace attaches a causal request capture: the scheduler keeps each
	// job's charged attempts (reconfig, batch waits, execution, spill, drain)
	// and a bounded flight-recorder ring, from which Run fills the capture —
	// one trace per job under Seed, and the flight timeline even when the run
	// fails; a caller stepping a Scheduler reads JobRecord and Flight instead.
	// All recording happens on the scheduler loop in virtual-time order; nil
	// disables capture at zero cost.
	ReqTrace *reqtrace.Capture

	// Memo, when set, is shared with the other Schedulers of a routing tier:
	// every job is an execution of the request its Tag names, and takes that
	// request's outcome on the placed backend from the memo when another
	// dispatch (or Memo.Ahead) has computed it. Nil executes every dispatch.
	Memo *Memo
}

// WithDefaults returns a copy with unset knobs filled in.
func (c Config) WithDefaults() Config {
	if c.FPGAs == 0 && c.Workers == 0 {
		// Only the all-unset pool defaults; FPGAs:2 alone means "no CPU
		// workers", which is a legitimate deployment.
		c.FPGAs = 2
		c.Workers = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.BatchMax == 0 {
		c.BatchMax = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate reports whether the configuration is runnable.
func (c *Config) Validate() (err error) {
	defer guardSimulator(&err)
	if c.FPGAs < 0 || c.Workers < 0 || c.FPGAs+c.Workers == 0 {
		return fmt.Errorf("partserver: need at least one resource (FPGAs %d, Workers %d)", c.FPGAs, c.Workers)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("partserver: QueueDepth %d < 1", c.QueueDepth)
	}
	if c.BatchMax < 1 {
		return fmt.Errorf("partserver: BatchMax %d < 1", c.BatchMax)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("partserver: %w", err)
		}
	}
	return nil
}

// Job is one admission request. The zero value is not valid; fill at least
// Rel and FanOut.
type Job struct {
	// Rel is the relation to partition (row layout for RowStore, column
	// layout for ColumnStore). For join jobs it is the build side.
	Rel *workload.Relation
	// Probe, when non-nil, makes this a join job: both relations are
	// partitioned on the placed resource and then joined (build+probe) with
	// the result checksum reported.
	Probe *workload.Relation

	// FanOut is the number of partitions (power of two ≥ 2).
	FanOut int
	// Hash selects murmur hashing; false selects radix bits.
	Hash   bool
	Format partition.Format
	Layout partition.Layout

	// ArrivalUS is the virtual arrival time (µs). Jobs may arrive in any
	// order; the scheduler sorts by (ArrivalUS, index).
	ArrivalUS int64
	// TimeoutUS, when > 0, cancels the job if it has not been dispatched
	// within TimeoutUS of its arrival. Running jobs are never preempted
	// (the circuit cannot stop mid-relation).
	TimeoutUS int64
	// CancelAtUS, when > 0, cancels the job if it is still queued at that
	// virtual time.
	CancelAtUS int64
	// MemoryBudgetBytes caps the join build memory of this tenant's job
	// (join jobs only; ≤ 0 unlimited). Partitions whose build side exceeds
	// it spill and are recursively repartitioned or broadcast; the match
	// count and checksum are identical to an unconstrained run, but the
	// spill traffic is charged as extra virtual join time and reported in
	// JobResult.SpilledBytes.
	MemoryBudgetBytes int64

	// Tag is an opaque caller identifier echoed verbatim in JobResult.Tag.
	// The scheduler never interprets it; routing tiers (the cluster
	// frontend) use it to map per-shard results back to their original
	// requests without relying on submission order.
	Tag int64
}

// Status is a job's terminal state. Every submitted job reaches exactly one.
type Status int

const (
	// StatusDone: the job completed and its output was verified written.
	StatusDone Status = iota
	// StatusTimedOut: the job waited past its TimeoutUS without being
	// dispatched.
	StatusTimedOut
	// StatusCancelled: the job's CancelAtUS passed while it was queued.
	StatusCancelled
	// StatusFailed: the job failed on every allowed attempt (e.g. a
	// simulator fault on the FPGA and again on the CPU rerun).
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusTimedOut:
		return "timedout"
	case StatusCancelled:
		return "cancelled"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Placement identifies where a job ultimately executed.
type Placement int

const (
	// PlacedNone: the job never ran (cancelled or timed out while queued).
	PlacedNone Placement = iota
	// PlacedFPGA: the job ran on a simulated FPGA instance.
	PlacedFPGA
	// PlacedCPU: the job ran on a CPU worker.
	PlacedCPU
)

func (p Placement) String() string {
	switch p {
	case PlacedNone:
		return "none"
	case PlacedFPGA:
		return "fpga"
	case PlacedCPU:
		return "cpu"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// JobResult is one job's outcome.
type JobResult struct {
	ID     int
	Status Status
	// Tag echoes Job.Tag (see there).
	Tag int64

	// Placement and Instance locate the final successful (or last
	// attempted) execution: fpga[Instance] or cpu[Instance].
	Placement Placement
	Instance  int

	// Attempts counts executions (1 for a clean run; retries and the CPU
	// rerun of a degraded job each add one).
	Attempts int
	// Degraded reports that the job fell back to CPU execution after FPGA
	// faults, a crash, or a PAD-mode overflow.
	Degraded bool

	// Virtual timeline (µs): arrival, first dispatch, completion.
	ArrivalUS  int64
	DispatchUS int64
	DoneUS     int64
	// QueueWaitUS is DispatchUS − ArrivalUS (time to the first dispatch).
	QueueWaitUS int64
	// ExecUS is the total virtual execution time charged, including aborted
	// attempts and reconfiguration shares.
	ExecUS int64

	// Output shape: the per-partition tuple counts (a partition's offset in
	// the partitioned output is the sum of those before it) and their total.
	Tuples int64
	Counts []int64
	// Checksum is the order-insensitive output checksum (the same multiset
	// hash partition.Result.PartitionChecksum uses, summed over all
	// partitions). For join jobs it is the joined-pairs checksum folded to
	// 32 bits.
	Checksum uint32
	// Matches is the join cardinality (join jobs only).
	Matches int64
	// SpilledBytes is the spill volume of a budgeted join job (zero for
	// unbudgeted or partition-only jobs).
	SpilledBytes int64

	// Err carries the failure message of a StatusFailed job.
	Err string
}

// Report is the outcome of one scheduled trace.
type Report struct {
	// Results holds one entry per submitted job, in job-index order.
	Results []JobResult
	// MakespanUS is the virtual completion time of the last job.
	MakespanUS int64
	// Placements counts terminal placements by kind.
	PlacedFPGA, PlacedCPU int
	// Degraded counts jobs that fell back to CPU execution.
	Degraded int
	// FailedInstances lists FPGA instances that fail-stopped, ascending.
	FailedInstances []int
}

// Run schedules jobs under cfg and blocks until every job reaches a
// terminal status: it submits the whole trace to a Scheduler (the full trace
// is supplied up front, so arrival order is independent of host scheduling
// and the FPGA crash thresholds know their denominator) and steps it until
// it has drained.
func Run(jobs []Job, cfg Config) (rep *Report, err error) {
	var s *Scheduler
	// Declared first, so it runs after the guard and sees a recovered fault.
	defer func() { s.fillCapture(err) }()
	defer guardSimulator(&err)
	s, err = NewScheduler(cfg, len(jobs))
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		if _, err := s.Submit(jobs[i]); err != nil {
			return nil, err
		}
	}
	for {
		if _, ok := s.NextEventUS(); !ok {
			return s.Report(), nil
		}
		s.Step()
	}
}

func validateJob(j *Job, id int) error {
	if j.Rel == nil {
		return fmt.Errorf("partserver: job %d has no relation", id)
	}
	if j.FanOut < 2 || !hashutil.IsPowerOfTwo(j.FanOut) {
		return fmt.Errorf("partserver: job %d fan-out %d is not a power of two ≥ 2", id, j.FanOut)
	}
	wantLayout := workload.RowLayout
	if j.Layout == partition.ColumnStore {
		wantLayout = workload.ColumnLayout
	}
	if j.Rel.Layout != wantLayout {
		return fmt.Errorf("partserver: job %d layout %v needs a %v relation, got %v", id, j.Layout, wantLayout, j.Rel.Layout)
	}
	if j.Probe != nil && j.Probe.Layout != wantLayout {
		return fmt.Errorf("partserver: job %d probe side layout mismatch: %v vs %v", id, j.Probe.Layout, wantLayout)
	}
	if j.Rel.Width != 8 || (j.Probe != nil && j.Probe.Width != 8) {
		return fmt.Errorf("partserver: job %d needs 8-byte tuples", id)
	}
	if j.ArrivalUS < 0 {
		return fmt.Errorf("partserver: job %d negative arrival %d", id, j.ArrivalUS)
	}
	if j.TimeoutUS < 0 || j.CancelAtUS < 0 {
		return fmt.Errorf("partserver: job %d negative timeout/cancel", id)
	}
	return nil
}

// configKey is the comparable batching identity of a partitioner
// configuration: jobs sharing it can run back-to-back on one instance
// without reconfiguration.
type configKey struct {
	fanOut int
	hash   bool
	format partition.Format
	layout partition.Layout
}

func keyOf(j *Job) configKey {
	return configKey{fanOut: j.FanOut, hash: j.Hash, format: j.Format, layout: j.Layout}
}
