// Package perfbench is the continuous benchmark-telemetry subsystem: it
// runs a fixed matrix of partitioning, join, distributed-join, scheduler,
// memory-budget and sharded-serving scenarios on the cycle-level simulator
// and emits one deterministic, schema-versioned BENCH report per suite
// (BENCH_<suite>.json, six in all).
//
// Because the FPGA-side numbers are simulated cycles — deterministic by
// construction, enforced by fpgavet and the simtrace byte-identity tests —
// the reports support a zero-noise perf gate: every gated metric is a pure
// function of (code, seed), so ANY delta against the committed baseline is
// a true regression, not measurement jitter. That is something real
// hardware labs cannot have; this repo gets it for free from the
// simulator's determinism contract and uses it the way the paper uses its
// analytical model (Section 4.6): as an exact expectation to diff reality
// against.
//
// Every record carries one metric class, gated: simulated cycles per
// kilotuple, stall cycles, write-combiner flush overhead vs the model's
// c_writecomb, BRAM port utilization, partition-size histograms, exchange
// retries/bytes, output checksums. Compare fails on any change. Host time
// (wall clock, allocations) is not recorded here at all; the benchmark/
// harness owns it.
//
// perfbench itself is on the fpgavet deterministic path: it may not read
// the host clock, draw global randomness, range over maps, or marshal the
// gated JSON through reflection (the benchjson analyzer).
package perfbench

import (
	"fmt"

	"fpgapart/distjoin"
	"fpgapart/experiments"
	"fpgapart/hashjoin"
	"fpgapart/internal/faults"
	"fpgapart/internal/model"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// Suite names, also the <suite> of the BENCH_<suite>.json file names.
const (
	SuitePartition = "partition"
	SuiteJoin      = "join"
	SuiteDistjoin  = "distjoin"
	SuiteSched     = "sched"
	SuiteMemory    = "memory"
	SuiteCluster   = "cluster"
)

// cell is one scenario of a suite: the record's name and the run that
// produces its gated metrics.
type cell struct {
	name string
	run  func() (simtrace.Snapshot, error)
}

// suites is every suite in canonical order: its name and its scenario
// matrix at a configuration.
var suites = []struct {
	name  string
	cells func(Config) ([]cell, error)
}{
	{SuitePartition, partitionCells},
	{SuiteJoin, joinCells},
	{SuiteDistjoin, distjoinCells},
	{SuiteSched, schedCells},
	{SuiteMemory, memoryCells},
	{SuiteCluster, clusterCells},
}

// Suites lists every suite in canonical order.
func Suites() []string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return names
}

// BenchFileName returns the canonical file name of a suite's report.
func BenchFileName(suite string) string { return "BENCH_" + suite + ".json" }

// Config scales and seeds a perfbench run.
type Config struct {
	// Seed drives every workload generator (default 42).
	Seed int64
	// Tuples is the relation size of the partition scenarios; the join and
	// distjoin suites scale off it (default 1<<15). The committed baseline
	// is generated at the default.
	Tuples int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Tuples <= 0 {
		c.Tuples = 1 << 15
	}
	return c
}

// RunSuite runs one suite's scenario matrix and returns its report.
func RunSuite(suite string, cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	var cellsOf func(Config) ([]cell, error)
	for _, s := range suites {
		if s.name == suite {
			cellsOf = s.cells
		}
	}
	if cellsOf == nil {
		return nil, fmt.Errorf("perfbench: unknown suite %q (have %v)", suite, Suites())
	}
	cells, err := cellsOf(cfg)
	if err != nil {
		return nil, fmt.Errorf("perfbench: suite %s: %w", suite, err)
	}
	records := make([]Record, 0, len(cells))
	for _, c := range cells {
		gated, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("perfbench: scenario %s: %w", c.name, err)
		}
		records = append(records, Record{Name: c.name, Gated: MetricSet{gated}})
	}
	return &Report{
		Schema:  SchemaVersion,
		Suite:   suite,
		Seed:    cfg.Seed,
		Tuples:  cfg.Tuples,
		Records: records,
	}, nil
}

// counter builds a gated scalar metric.
func counter(name string, v int64) simtrace.Metric {
	return simtrace.Metric{Name: name, Kind: simtrace.KindCounter, Value: v}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// zipfFactor is the skew of the skewed partition scenarios — inside the
// paper's Section 5.4 sweep (0.25–1.75) and heavy enough that PAD mode's
// padded partitions overflow, exercising the detection + CPU-fallback path.
const zipfFactor = 1.25

// partitionScenario is one cell of the partition matrix.
type partitionScenario struct {
	mode   experiments.FPGAMode
	width  int
	fanOut int
	skewed bool
	// singleKey gives every tuple key 0 on platform.RawFPGA, where the
	// circuit, not the link, binds: the input forwarding exists for.
	singleKey bool
	// ablation is "", or DESIGN §6's "no-forwarding" (#1) or "no-combiner" (#2).
	ablation string
}

func (s partitionScenario) name() string {
	dist := "uniform"
	switch {
	case s.skewed:
		dist = fmt.Sprintf("zipf%.2f", zipfFactor)
	case s.singleKey:
		dist = "single/raw"
	}
	if s.ablation != "" {
		dist += "/" + s.ablation
	}
	return fmt.Sprintf("%s/%s/w%d/fan%d/%s", SuitePartition, s.mode.Name(), s.width, s.fanOut, dist)
}

// partitionMatrix is the fixed scenario set: the four Figure 9 modes at the
// base point, a tuple-width sweep (Figure 8's 8–64 B), a fan-out sweep
// across the paper's 2^4–2^13 range, and skewed variants of both output
// strategies (HIST absorbs skew, PAD overflows and falls back — both
// trajectories are gated), then the paper's two circuit ablations, each
// beside the circuit it ablates.
func partitionMatrix() []partitionScenario {
	modes := experiments.FPGAModes()
	byName := make(map[string]experiments.FPGAMode, len(modes))
	for _, m := range modes {
		byName[m.Name()] = m
	}
	histRID, padRID := byName["HIST/RID"], byName["PAD/RID"]

	var out []partitionScenario
	// Figure 9's four modes at the base point (8 B, fan-out 256, uniform).
	for _, m := range modes {
		out = append(out, partitionScenario{mode: m, width: 8, fanOut: 256})
	}
	// Figure 8's width sweep (RID only: VRID is defined for 8 B keys).
	for _, w := range []int{16, 32, 64} {
		out = append(out, partitionScenario{mode: histRID, width: w, fanOut: 256})
	}
	// Fan-out sweep endpoints of the paper's 2^4–2^13 range.
	for _, f := range []int{1 << 4, 1 << 13} {
		out = append(out, partitionScenario{mode: histRID, width: 8, fanOut: f})
	}
	// Skew: HIST absorbs it, PAD overflows into the CPU fallback.
	out = append(out,
		partitionScenario{mode: histRID, width: 8, fanOut: 256, skewed: true},
		partitionScenario{mode: padRID, width: 8, fanOut: 256, skewed: true},
		// DESIGN §6 #1: Code 4's forwarding registers against stalling on
		// every read-after-write hazard.
		partitionScenario{mode: histRID, width: 8, fanOut: 64, singleKey: true},
		partitionScenario{mode: histRID, width: 8, fanOut: 64, singleKey: true, ablation: "no-forwarding"},
		// DESIGN §6 #2: Section 4.2's per-tuple read-modify-write against
		// HIST/RID/w8/fan256/uniform above.
		partitionScenario{mode: histRID, width: 8, fanOut: 256, ablation: "no-combiner"},
	)
	return out
}

func partitionCells(cfg Config) ([]cell, error) {
	var cells []cell
	for _, sc := range partitionMatrix() {
		cells = append(cells, cell{sc.name(), func() (simtrace.Snapshot, error) { return runPartitionScenario(cfg, sc) }})
	}
	return cells, nil
}

func runPartitionScenario(cfg Config, sc partitionScenario) (simtrace.Snapshot, error) {
	gen := workload.NewGenerator(cfg.Seed)
	var (
		rel *workload.Relation
		err error
	)
	plat := platform.XeonFPGA()
	switch {
	case sc.skewed:
		rel, err = gen.ZipfRelation(zipfFactor, cfg.Tuples, sc.width, cfg.Tuples)
	case sc.singleKey:
		rel, err = workload.FromKeys(make([]uint32, cfg.Tuples), sc.width)
		plat = platform.RawFPGA()
	default:
		rel, err = gen.Relation(workload.Random, sc.width, cfg.Tuples)
	}
	if err != nil {
		return nil, err
	}
	in := rel
	if sc.mode.Layout == partition.ColumnStore {
		in = rel.ToColumns()
	}

	sess := simtrace.NewSession()
	p, err := partition.NewFPGA(partition.FPGAOptions{
		Partitions:      sc.fanOut,
		TupleWidth:      sc.width,
		Hash:            true,
		Format:          sc.mode.Format,
		Layout:          sc.mode.Layout,
		PadFraction:     0.5,
		Platform:        plat,
		FallbackThreads: 1,
		Trace:           sess,

		DisableForwarding:    sc.ablation == "no-forwarding",
		DisableWriteCombiner: sc.ablation == "no-combiner",
	})
	if err != nil {
		return nil, err
	}

	res, err := p.Partition(in)
	if err != nil {
		return nil, err
	}

	st := res.Stats
	var perKTuple int64
	if st.TuplesIn > 0 && !st.Overflowed {
		perKTuple = st.Cycles * 1000 / st.TuplesIn
	}
	return sess.Snapshot().With(
		counter("bench.cycles_per_ktuple", perKTuple),
		counter("bench.stall_cycles", st.StallsBackpressure+st.StallsHazard),
		counter("bench.flush_overhead_x100_vs_model", st.FlushCycles*100/model.CyclesWriteComb),
		counter("bench.fell_back", b2i(res.FellBack())),
		counter("bench.pad_overflow_at_tuple", st.OverflowAtTuple),
		counter("output.tuples", res.TotalTuples()),
		counter("output.checksum", outputChecksum(res)),
	), nil
}

// outputChecksum folds every partition's order-insensitive checksum into
// one value, so a correctness drift (not just a cycle drift) trips the gate.
func outputChecksum(res *partition.Result) int64 {
	var h uint32
	for p := 0; p < res.NumPartitions(); p++ {
		h += res.PartitionChecksum(p)
	}
	return int64(h)
}

// joinCells are the hybrid join of workload A with the circuit in three of
// the paper's modes.
func joinCells(cfg Config) ([]cell, error) {
	var cells []cell
	for _, m := range []experiments.FPGAMode{
		{Format: partition.HistMode, Layout: partition.RowStore},
		{Format: partition.PadMode, Layout: partition.RowStore},
		{Format: partition.HistMode, Layout: partition.ColumnStore},
	} {
		cells = append(cells, cell{"join/hybrid/" + m.Name() + "/A", func() (simtrace.Snapshot, error) { return runJoinScenario(cfg, m) }})
	}
	return cells, nil
}

func runJoinScenario(cfg Config, m experiments.FPGAMode) (simtrace.Snapshot, error) {
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		return nil, err
	}
	// Workload A at 4×Tuples per relation — big enough that the two
	// circuit runs dominate the record, small enough for a CI gate.
	n := 4 * cfg.Tuples
	in, err := spec.Scaled(float64(n) / float64(spec.TuplesR)).Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}

	sess := simtrace.NewSession()
	opts := hashjoin.Options{
		Partitions:  1024,
		Threads:     1,
		Hash:        true,
		Format:      m.Format,
		Layout:      m.Layout,
		PadFraction: 0.5,
		Trace:       sess,
	}

	r, s := in.R, in.S
	if m.Layout == partition.ColumnStore {
		r, s = r.ToColumns(), s.ToColumns()
	}
	res, err := hashjoin.Hybrid(r, s, opts)
	if err != nil {
		return nil, err
	}

	return sess.Snapshot().With(
		counter("join.matches", res.Matches),
		counter("join.checksum_hi", int64(res.Checksum>>32)),
		counter("join.checksum_lo", int64(res.Checksum&0xffffffff)),
		counter("join.partition_r_sim_ns", res.PartitionR.Nanoseconds()),
		counter("join.partition_s_sim_ns", res.PartitionS.Nanoseconds()),
		counter("bench.fell_back", b2i(res.FellBack)),
	), nil
}

// distjoinScenario is one distributed-join cell.
type distjoinScenario struct {
	label    string
	scenario *faults.Scenario
}

// distjoinNodes is the cluster size of both distjoin cells.
const distjoinNodes = 4

func distjoinCells(cfg Config) ([]cell, error) {
	var cells []cell
	for _, sc := range []distjoinScenario{
		{"faultfree", nil},
		{"faulty", &faults.Scenario{
			Seed:        uint64(cfg.Seed),
			DropProb:    0.1,
			CorruptProb: 0.3,
			Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.5}},
			Links:       []faults.Link{{Src: 0, Dst: 2, Factor: 0.25}},
		}},
	} {
		name := fmt.Sprintf("distjoin/%dn/fpga/HIST/%s", distjoinNodes, sc.label)
		cells = append(cells, cell{name, func() (simtrace.Snapshot, error) { return runDistjoinScenario(cfg, sc) }})
	}
	return cells, nil
}

func runDistjoinScenario(cfg Config, sc distjoinScenario) (simtrace.Snapshot, error) {
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		return nil, err
	}
	n := 2 * cfg.Tuples
	in, err := spec.Scaled(float64(n) / float64(spec.TuplesR)).Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}

	sess := simtrace.NewSession()
	opts := distjoin.Options{
		Nodes:             distjoinNodes,
		PartitionsPerNode: 256,
		Threads:           1,
		UseFPGA:           true,
		Format:            partition.HistMode,
		Faults:            sc.scenario,
		Trace:             sess,
	}

	res, err := distjoin.Join(in.R, in.S, opts)
	if err != nil {
		return nil, err
	}

	return sess.Snapshot().With(
		counter("join.matches", res.Matches),
		counter("join.checksum_hi", int64(res.Checksum>>32)),
		counter("join.checksum_lo", int64(res.Checksum&0xffffffff)),
		counter("dist.partition_sim_us", res.PartitionTime.Microseconds()),
		counter("dist.exchange_sim_us", res.ExchangeTime.Microseconds()),
		counter("dist.degraded", b2i(res.Degraded)),
	), nil
}
