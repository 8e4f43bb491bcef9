// Package perfbench is the continuous benchmark-telemetry subsystem: it
// runs a fixed matrix of partitioning, hybrid-join and distributed-join
// scenarios on the cycle-level simulator and emits deterministic,
// schema-versioned BENCH reports (BENCH_partition.json, BENCH_join.json,
// BENCH_distjoin.json).
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
	SuiteReqtrace  = "reqtrace"
)

// Suites lists every suite in canonical order.
func Suites() []string {
	return []string{SuitePartition, SuiteJoin, SuiteDistjoin, SuiteSched, SuiteMemory, SuiteCluster, SuiteReqtrace}
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
	var (
		records []Record
		err     error
	)
	switch suite {
	case SuitePartition:
		records, err = runPartitionSuite(cfg)
	case SuiteJoin:
		records, err = runJoinSuite(cfg)
	case SuiteDistjoin:
		records, err = runDistjoinSuite(cfg)
	case SuiteSched:
		records, err = runSchedSuite(cfg)
	case SuiteMemory:
		records, err = runMemorySuite(cfg)
	case SuiteCluster:
		records, err = runClusterSuite(cfg)
	case SuiteReqtrace:
		records, err = runReqtraceSuite(cfg)
	default:
		return nil, fmt.Errorf("perfbench: unknown suite %q (have %v)", suite, Suites())
	}
	if err != nil {
		return nil, err
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
}

func (s partitionScenario) name() string {
	dist := "uniform"
	if s.skewed {
		dist = fmt.Sprintf("zipf%.2f", zipfFactor)
	}
	return fmt.Sprintf("%s/%s/w%d/fan%d/%s", SuitePartition, s.mode.Name, s.width, s.fanOut, dist)
}

// partitionMatrix is the fixed scenario set: the four Figure 9 modes at the
// base point, a tuple-width sweep (Figure 8's 8–64 B), a fan-out sweep
// across the paper's 2^4–2^13 range, and skewed variants of both output
// strategies (HIST absorbs skew, PAD overflows and falls back — both
// trajectories are gated).
func partitionMatrix() []partitionScenario {
	modes := experiments.FPGAModes()
	byName := make(map[string]experiments.FPGAMode, len(modes))
	for _, m := range modes {
		byName[m.Name] = m
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
	)
	return out
}

func runPartitionSuite(cfg Config) ([]Record, error) {
	var records []Record
	for _, sc := range partitionMatrix() {
		rec, err := runPartitionScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("perfbench: scenario %s: %w", sc.name(), err)
		}
		records = append(records, rec)
	}
	return records, nil
}

func runPartitionScenario(cfg Config, sc partitionScenario) (Record, error) {
	gen := workload.NewGenerator(cfg.Seed)
	var (
		rel *workload.Relation
		err error
	)
	if sc.skewed {
		rel, err = gen.ZipfRelation(zipfFactor, cfg.Tuples, sc.width, cfg.Tuples)
	} else {
		rel, err = gen.Relation(workload.Random, sc.width, cfg.Tuples)
	}
	if err != nil {
		return Record{}, err
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
		FallbackThreads: 1,
		Trace:           sess,
	})
	if err != nil {
		return Record{}, err
	}

	res, err := p.Partition(in)
	if err != nil {
		return Record{}, err
	}

	st := res.Stats
	var perKTuple int64
	if st.TuplesIn > 0 && !st.Overflowed {
		perKTuple = st.Cycles * 1000 / st.TuplesIn
	}
	gated := sess.Metrics.Snapshot().With(
		counter("bench.cycles_per_ktuple", perKTuple),
		counter("bench.stall_cycles", st.StallsBackpressure+st.StallsHazard),
		counter("bench.flush_overhead_x100_vs_model", st.FlushCycles*100/model.CyclesWriteComb),
		counter("bench.fell_back", b2i(res.FellBack())),
		counter("bench.pad_overflow_at_tuple", st.OverflowAtTuple),
		counter("output.tuples", res.TotalTuples()),
		counter("output.checksum", outputChecksum(res)),
	)
	return Record{Name: sc.name(), Gated: MetricSet{gated}}, nil
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

// joinScenario is one hybrid-join cell.
type joinScenario struct {
	label  string
	format partition.Format
	layout partition.Layout
}

func runJoinSuite(cfg Config) ([]Record, error) {
	scenarios := []joinScenario{
		{"HIST/RID", partition.HistMode, partition.RowStore},
		{"PAD/RID", partition.PadMode, partition.RowStore},
		{"HIST/VRID", partition.HistMode, partition.ColumnStore},
	}
	var records []Record
	for _, sc := range scenarios {
		rec, err := runJoinScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("perfbench: scenario join/hybrid/%s: %w", sc.label, err)
		}
		records = append(records, rec)
	}
	return records, nil
}

func runJoinScenario(cfg Config, sc joinScenario) (Record, error) {
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		return Record{}, err
	}
	// Workload A at 4×Tuples per relation — big enough that the two
	// circuit runs dominate the record, small enough for a CI gate.
	n := 4 * cfg.Tuples
	in, err := spec.Scaled(float64(n) / float64(spec.TuplesR)).Generate(cfg.Seed)
	if err != nil {
		return Record{}, err
	}

	sess := simtrace.NewSession()
	opts := hashjoin.Options{
		Partitions:  1024,
		Threads:     1,
		Hash:        true,
		Format:      sc.format,
		Layout:      sc.layout,
		PadFraction: 0.5,
		Trace:       sess,
	}

	var res *hashjoin.Result
	if sc.layout == partition.ColumnStore {
		p, perr := partition.NewFPGA(partition.FPGAOptions{
			Partitions: opts.Partitions, Hash: true, Format: sc.format,
			Layout: partition.ColumnStore, PadFraction: opts.PadFraction,
			FallbackThreads: 1, Trace: sess,
		})
		if perr != nil {
			return Record{}, perr
		}
		res, err = hashjoin.Join(in.R.ToColumns(), in.S.ToColumns(), p, opts)
	} else {
		res, err = hashjoin.Hybrid(in.R, in.S, opts)
	}
	if err != nil {
		return Record{}, err
	}

	gated := sess.Metrics.Snapshot().With(
		counter("join.matches", res.Matches),
		counter("join.checksum_hi", int64(res.Checksum>>32)),
		counter("join.checksum_lo", int64(res.Checksum&0xffffffff)),
		counter("join.partition_r_sim_ns", res.PartitionR.Nanoseconds()),
		counter("join.partition_s_sim_ns", res.PartitionS.Nanoseconds()),
		counter("bench.fell_back", b2i(res.FellBack)),
	)
	return Record{Name: "join/hybrid/" + sc.label + "/A", Gated: MetricSet{gated}}, nil
}

// distjoinScenario is one distributed-join cell.
type distjoinScenario struct {
	label    string
	scenario *faults.Scenario
}

func runDistjoinSuite(cfg Config) ([]Record, error) {
	scenarios := []distjoinScenario{
		{"faultfree", nil},
		{"faulty", &faults.Scenario{
			Seed:        uint64(cfg.Seed),
			DropProb:    0.005,
			CorruptProb: 0.01,
			Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.5}},
			Links:       []faults.Link{{Src: 0, Dst: 2, Factor: 0.25}},
		}},
	}
	var records []Record
	for _, sc := range scenarios {
		rec, err := runDistjoinScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("perfbench: scenario distjoin/%s: %w", sc.label, err)
		}
		records = append(records, rec)
	}
	return records, nil
}

func runDistjoinScenario(cfg Config, sc distjoinScenario) (Record, error) {
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		return Record{}, err
	}
	n := 2 * cfg.Tuples
	in, err := spec.Scaled(float64(n) / float64(spec.TuplesR)).Generate(cfg.Seed)
	if err != nil {
		return Record{}, err
	}

	const nodes = 4
	sess := simtrace.NewSession()
	opts := distjoin.Options{
		Nodes:             nodes,
		PartitionsPerNode: 256,
		Threads:           1,
		UseFPGA:           true,
		Format:            partition.HistMode,
		Faults:            sc.scenario,
		Trace:             sess,
	}

	res, err := distjoin.Join(in.R, in.S, opts)
	if err != nil {
		return Record{}, err
	}

	gated := sess.Metrics.Snapshot().With(
		counter("join.matches", res.Matches),
		counter("join.checksum_hi", int64(res.Checksum>>32)),
		counter("join.checksum_lo", int64(res.Checksum&0xffffffff)),
		counter("dist.partition_sim_us", res.PartitionTime.Microseconds()),
		counter("dist.exchange_sim_us", res.ExchangeTime.Microseconds()),
		counter("dist.bytes_exchanged", res.BytesExchanged),
		counter("dist.resent_bytes", res.ResentBytes),
		counter("dist.retries", res.Retries),
		counter("dist.corrupt_pieces", res.CorruptPieces),
		counter("dist.failed_nodes", int64(len(res.FailedNodes))),
		counter("dist.degraded", b2i(res.Degraded)),
	)
	return Record{Name: fmt.Sprintf("distjoin/%dn/fpga/HIST/%s", nodes, sc.label), Gated: MetricSet{gated}}, nil
}
