// Package distjoin implements the paper's second envisioned use of the
// partitioner (Section 6): rack-scale distributed joins where the
// partitioner — ideally the FPGA circuit attached directly to the network —
// splits each node's data across the cluster over RDMA (following Barthels
// et al.), so that after one exchange every node holds complete, cache-sized
// partitions and finishes with purely local build+probe.
//
// Execution model: every node partitions its local shard of R and S into a
// global fan-out of Nodes × PartitionsPerNode partitions; the low bits of
// the partition index select the owning node. The all-to-all exchange is
// timed by the RDMA fabric model of an FDR InfiniBand cluster
// (rdma.FDRCluster's Exchange) from the exact partition pieces, coalesced
// per node pair into fabric-sized messages; partitioning is measured (CPU)
// or simulated (FPGA) per node, and the local joins run for real. Per-phase
// time is the slowest node, as the phases are cluster-synchronous.
//
// The exchange is fault-tolerant, and it is one exchange: Options.Faults
// injects a deterministic failure scenario (internal/faults), and no
// scenario is the scenario that injects nothing. Dropped messages are
// retried with exponential backoff, corrupt ones are detected by the
// pieces' checksums and re-sent, and crashed nodes' partitions are
// deterministically taken over by the survivors so the join still completes
// with the exact same Matches and Checksum, reporting Degraded. See
// Result's fault fields.
package distjoin

import (
	"fmt"
	"time"

	"fpgapart/internal/faults"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/joincore"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// ErrSimulatorFault is partition.ErrSimulatorFault re-exported: invariant
// panics from the simulator internals (internal/fpga, internal/qpi) are
// converted into errors wrapping this sentinel instead of crashing the
// caller. Test with errors.Is.
var ErrSimulatorFault = partition.ErrSimulatorFault

// Options configures a distributed join.
type Options struct {
	// Nodes is the cluster size (power of two ≥ 1).
	Nodes int
	// PartitionsPerNode is the per-node fan-out after the exchange (power
	// of two); the global fan-out is Nodes × PartitionsPerNode.
	PartitionsPerNode int
	// UseFPGA partitions each node's shard on the simulated FPGA circuit
	// instead of the measured CPU partitioner.
	UseFPGA bool
	// Format is the FPGA mode (HIST recommended for unknown skew).
	Format partition.Format
	// Threads is the per-node build+probe (and CPU partitioning)
	// parallelism. Negative values are rejected; 0 means all cores.
	Threads int
	// Faults injects a deterministic failure scenario into the exchange
	// (nil = perfect cluster, the same as a scenario that injects nothing).
	Faults *faults.Scenario
	// Trace attaches a simtrace session: the join emits per-node and
	// cluster-level phase spans (partition / exchange / local join, one
	// trace microsecond per simulated microsecond) into Trace.Tracer and
	// exchange-level counters into Trace.Metrics.
	// Nil disables tracing. Note the timeline unit differs from circuit
	// sessions (which stamp FPGA cycles) — use separate sessions for the
	// two levels.
	Trace *simtrace.Session
}

func (o Options) withDefaults() Options {
	if o.PartitionsPerNode == 0 {
		o.PartitionsPerNode = 1024
	}
	if o.Faults == nil {
		o.Faults = &faults.Scenario{}
	}
	return o
}

func (o *Options) validate() error {
	if !hashutil.IsPowerOfTwo(o.Nodes) {
		return fmt.Errorf("distjoin: Nodes %d must be a power of two", o.Nodes)
	}
	if !hashutil.IsPowerOfTwo(o.PartitionsPerNode) {
		return fmt.Errorf("distjoin: PartitionsPerNode %d must be a power of two", o.PartitionsPerNode)
	}
	if o.Threads < 0 {
		return fmt.Errorf("distjoin: negative Threads %d", o.Threads)
	}
	return o.validateScenarioNodes()
}

// validateScenarioNodes range-checks the scenario's node references against
// the cluster and requires at least one survivor.
func (o *Options) validateScenarioNodes() error {
	s := o.Faults
	for _, l := range s.Links {
		if l.Src >= o.Nodes || l.Dst >= o.Nodes {
			return fmt.Errorf("distjoin: degraded link %d→%d on a %d-node cluster", l.Src, l.Dst, o.Nodes)
		}
	}
	for _, st := range s.Stragglers {
		if st.Node >= o.Nodes {
			return fmt.Errorf("distjoin: straggler node %d on a %d-node cluster", st.Node, o.Nodes)
		}
	}
	crashed := 0
	for _, c := range s.Crashes {
		if c.Node >= o.Nodes {
			return fmt.Errorf("distjoin: crash of node %d on a %d-node cluster", c.Node, o.Nodes)
		}
		crashed++
	}
	if crashed >= o.Nodes {
		return fmt.Errorf("distjoin: all %d nodes crash — no survivors to degrade onto", o.Nodes)
	}
	return nil
}

// Result reports a distributed join.
type Result struct {
	Matches  int64
	Checksum uint64

	// PartitionTime is the slowest node's partitioning time for both
	// relations (simulated when UseFPGA).
	PartitionTime time.Duration
	// ExchangeTime is the simulated all-to-all RDMA exchange, including —
	// under a fault scenario — timeouts, backoffs, piece re-requests and
	// the recovery round after node crashes.
	ExchangeTime time.Duration
	// JoinTime is the slowest node's measured local build+probe (with the
	// coherence penalty on a node whose partitions its FPGA wrote).
	JoinTime time.Duration
	// JoinTuples is the build+probe input, R and S tuples together, of the
	// node that joins the most: the deterministic side of JoinTime.
	JoinTuples int64
	Total      time.Duration

	// BytesExchanged is the total off-node payload traffic (one clean copy
	// of every piece); retransmitted traffic is reported separately.
	BytesExchanged int64
	Nodes          int

	// Retries is the total number of retransmissions during the exchange:
	// message-level retries after drops/timeouts plus whole-piece
	// re-requests after checksum failures.
	Retries int64
	// CorruptPieces counts piece receptions that failed checksum
	// verification and were re-requested from the sender.
	CorruptPieces int64
	// ResentBytes is the wire traffic beyond one clean copy of each piece:
	// retransmissions, re-requests, traffic wasted on nodes that then
	// crashed, and the recovery round's re-pulls.
	ResentBytes int64
	// FailedNodes lists the nodes that crashed during the exchange
	// (sorted); their partitions were taken over by the survivors.
	FailedNodes []int
	// Degraded reports that the join completed despite node failures, with
	// surviving nodes covering the crashed nodes' partitions.
	Degraded bool
}

// Join executes the distributed join of r ⋈ s under opts. Invariant panics
// escaping the simulator internals are converted into ErrSimulatorFault
// errors rather than crashing the caller.
func Join(r, s *workload.Relation, opts Options) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("distjoin: %w: %v", ErrSimulatorFault, rec)
		}
	}()
	return join(r, s, opts)
}

func join(r, s *workload.Relation, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	global := opts.Nodes * opts.PartitionsPerNode

	inj, err := faults.New(*opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("distjoin: bad fault scenario: %w", err)
	}

	rShards := shard(r, opts.Nodes)
	sShards := shard(s, opts.Nodes)

	p, err := makePartitioner(opts, global)
	if err != nil {
		return nil, err
	}

	// Per-node phase durations are recorded only when tracing, for the
	// per-node timeline spans.
	var nodePart, nodeJoin []time.Duration
	if opts.Trace != nil {
		nodePart = make([]time.Duration, opts.Nodes)
		nodeJoin = make([]time.Duration, opts.Nodes)
	}

	// Phase 1: every node partitions its shards to the global fan-out. A
	// shard holding the circuit's dummy key is partitioned on the CPU, as
	// the circuit's output cannot represent that key.
	rParts := make([]*partition.Result, opts.Nodes)
	sParts := make([]*partition.Result, opts.Nodes)
	var slowest time.Duration
	for n := 0; n < opts.Nodes; n++ {
		pr, _, err := partition.Exact(p, rShards[n], true, opts.Threads)
		if err != nil {
			return nil, fmt.Errorf("distjoin: node %d partitioning R: %w", n, err)
		}
		ps, _, err := partition.Exact(p, sShards[n], true, opts.Threads)
		if err != nil {
			return nil, fmt.Errorf("distjoin: node %d partitioning S: %w", n, err)
		}
		rParts[n], sParts[n] = pr, ps
		t := time.Duration(float64(pr.Elapsed()+ps.Elapsed()) * inj.StraggleFactor(n))
		if nodePart != nil {
			nodePart[n] = t
		}
		if t > slowest {
			slowest = t
		}
	}

	// Phase 2: all-to-all exchange. Node i sends partition p (of either
	// relation) to node p & (Nodes-1); physical bytes include dummy padding
	// for FPGA-written partitions (8 bytes per addressable slot). The
	// exchange runs message by message under the fault scenario, with
	// retries, re-sent corrupt messages and crash takeover (faulttolerance.go).
	ex, err := runExchange(rParts, sParts, opts, inj, global)
	if err != nil {
		return nil, err
	}

	// Phase 3: per owning node, join its partitions, each assembled from
	// all nodes' pieces. After a crash, ownership reflects the takeover.
	ownedGPs := make([][]int, opts.Nodes)
	for gp := 0; gp < global; gp++ {
		n := ex.ownerOf[gp]
		ownedGPs[n] = append(ownedGPs[n], gp)
	}
	var matches int64
	var checksum uint64
	var slowestJoin time.Duration
	var mostJoined int64
	coherence := platform.XeonFPGA().Coherence
	for n := 0; n < opts.Nodes; n++ {
		if len(ownedGPs[n]) == 0 {
			continue
		}
		gps := ownedGPs[n]
		var tuples int64
		for _, gp := range gps {
			for src := range rParts {
				tuples += rParts[src].Count(gp) + sParts[src].Count(gp)
			}
		}
		mostJoined = max(mostJoined, tuples)
		bp, err := joincore.BuildProbe(&merged{rParts, gps}, &merged{sParts, gps}, opts.Threads)
		if err != nil {
			return nil, err
		}
		matches += bp.Matches
		checksum += bp.Checksum
		// Node n's partitions are written where its shards were
		// partitioned: by its FPGA, unless its partitioner was the CPU.
		writer := platform.CPUSocket
		if rParts[n].FPGAWritten() || sParts[n].FPGAWritten() {
			writer = platform.FPGASocket
		}
		build, probe := coherence.JoinTime(bp.Build, bp.Probe, writer)
		t := time.Duration(float64(build+probe) * inj.StraggleFactor(n))
		if nodeJoin != nil {
			nodeJoin[n] = t
		}
		if t > slowestJoin {
			slowestJoin = t
		}
	}

	res := &Result{
		Matches:        matches,
		Checksum:       checksum,
		PartitionTime:  slowest,
		ExchangeTime:   time.Duration(ex.seconds * float64(time.Second)),
		JoinTime:       slowestJoin,
		JoinTuples:     mostJoined,
		BytesExchanged: ex.payloadBytes,
		Nodes:          opts.Nodes,
		Retries:        ex.retries,
		CorruptPieces:  ex.corruptPieces,
		ResentBytes:    ex.resentBytes,
		FailedNodes:    ex.failedNodes,
		Degraded:       ex.degraded,
	}
	res.Total = res.PartitionTime + res.ExchangeTime + res.JoinTime
	if opts.Trace != nil {
		emitTrace(opts.Trace, res, nodePart, nodeJoin)
	}
	return res, nil
}

// makePartitioner is a package variable so tests can substitute a faulty
// backend and exercise the recovery boundary.
var makePartitioner = func(opts Options, global int) (partition.Partitioner, error) {
	if opts.UseFPGA {
		return partition.NewFPGA(partition.FPGAOptions{
			Partitions:      global,
			Hash:            true,
			Format:          opts.Format,
			PadFraction:     0.5,
			FallbackThreads: opts.Threads,
		})
	}
	return partition.NewCPU(partition.CPUOptions{
		Partitions: global,
		Hash:       true,
		Threads:    opts.Threads,
	})
}

// shard splits rel round-robin into n shards (the arrival distribution of a
// scan spread over a cluster).
func shard(rel *workload.Relation, n int) []*workload.Relation {
	shards := make([]*workload.Relation, n)
	sizes := make([]int, n)
	for i := 0; i < rel.NumTuples; i++ {
		sizes[i%n]++
	}
	idx := make([]int, n)
	for i := range shards {
		shards[i], _ = workload.NewRelation(workload.RowLayout, 8, sizes[i])
	}
	for i := 0; i < rel.NumTuples; i++ {
		s := i % n
		shards[s].SetTuple(idx[s], rel.Key(i), rel.Payload(i))
		idx[s]++
	}
	return shards
}

// merged presents a set of global partitions, each assembled from every
// source node's piece, as a joincore.Partitions: partition i is one run per
// source, in node order. The set is the partitions one node owns — by the
// static `gp & (Nodes-1)` rule, or after a crash takeover an arbitrary list.
type merged struct {
	parts []*partition.Result
	gps   []int
}

func (m *merged) NumPartitions() int { return len(m.gps) }
func (m *merged) NumRuns(p int) int  { return len(m.parts) }
func (m *merged) Run(p, src int) ([]uint64, int, uint32, bool) {
	return m.parts[src].Run(m.gps[p], 0)
}
