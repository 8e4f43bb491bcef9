package main

import (
	"fmt"
	"math"

	"fpgapart/hashjoin"
	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/workload"
)

// joinOp describes one class of the join workload.
type joinOp struct {
	name string
	fn   string // call's name
	in   *workload.JoinInput
	opts hashjoin.Options
	call func(r, s *workload.Relation, o hashjoin.Options) (*hashjoin.Result, error)
	// partitioner builds the partitioner the shadow calls replay the
	// partitioning phase with; nil for the non-partitioned join.
	partitioner func() (partition.Partitioner, error)
	hybrid      bool
}

// joinBest keeps, per class, the best phase times hashjoin.Result reported.
type joinBest struct {
	partitionS, buildS, probeS, totalS float64
}

func setupJoin(seed int64, sc scale, traced bool) (*bench, error) {
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(float64(sc.joinN) / float64(spec.TuplesR))
	gen := newGenerator(seed)
	var uniform, skewed *workload.JoinInput
	if err := gen.timed(spec.TuplesR+spec.TuplesS, func() (err error) {
		uniform, err = spec.Generate(seed)
		return err
	}); err != nil {
		return nil, err
	}
	if err := gen.timed(spec.TuplesR+spec.TuplesS, func() (err error) {
		skewed, err = spec.GenerateSkewed(seed, 1.0)
		return err
	}); err != nil {
		return nil, err
	}

	// The budget is a quarter of one partition's build side at the budgeted
	// fan-out, so every partition of the uniform input spills and recurses.
	budgetFan := min(256, sc.fan)
	budget := int64(spec.TuplesR/budgetFan) * joincore.BuildTupleBytes / 4
	cpuPartitioner := func(fan int) func() (partition.Partitioner, error) {
		return func() (partition.Partitioner, error) {
			return partition.NewCPU(partition.CPUOptions{Partitions: fan, Threads: 2})
		}
	}
	hybridOpts := hashjoin.Options{Partitions: sc.fan, Threads: 2, Hash: true,
		Format: partition.PadMode, Layout: partition.RowStore, PadFraction: steadyPad}
	ops := []joinOp{
		{name: "cpu_radix", fn: "hashjoin.CPU", in: uniform, call: hashjoin.CPU, partitioner: cpuPartitioner(sc.fan),
			opts: hashjoin.Options{Partitions: sc.fan, Threads: 2}},
		{name: "cpu_budget_spill", fn: "hashjoin.CPU", in: uniform, call: hashjoin.CPU, partitioner: cpuPartitioner(budgetFan),
			opts: hashjoin.Options{Partitions: budgetFan, Threads: 2, MemoryBudgetBytes: budget}},
		{name: "cpu_budget_skew", fn: "hashjoin.CPU", in: skewed, call: hashjoin.CPU, partitioner: cpuPartitioner(budgetFan),
			opts: hashjoin.Options{Partitions: budgetFan, Threads: 2, MemoryBudgetBytes: budget}},
		{name: "nonpartitioned", fn: "hashjoin.NonPartitioned", in: uniform, call: hashjoin.NonPartitioned,
			opts: hashjoin.Options{Threads: 2}},
		{name: "hybrid_pad_rid", fn: "hashjoin.Hybrid", in: uniform, call: hashjoin.Hybrid, hybrid: true, opts: hybridOpts,
			partitioner: func() (partition.Partitioner, error) {
				return partition.NewFPGA(partition.FPGAOptions{Partitions: sc.fan, Hash: true,
					Format: partition.PadMode, PadFraction: steadyPad, FallbackThreads: 2})
			}},
	}

	// Reference: the non-partitioned join of each input, computed here.
	refs := map[*workload.JoinInput]*hashjoin.Result{}
	for _, in := range []*workload.JoinInput{uniform, skewed} {
		ref, err := hashjoin.NonPartitioned(in.R, in.S, hashjoin.Options{Threads: 2})
		if err != nil {
			return nil, fmt.Errorf("reference join: %w", err)
		}
		refs[in] = ref
	}

	bests := map[string]*joinBest{}
	mems := map[string]*hashjoin.MemoryStats{}
	var hybridCycles int64 // of the hybrid class's shadow partitioning; the only simulated cycles here
	wl := &bench{name: "join"}
	for _, o := range ops {
		o := o
		b := &joinBest{partitionS: math.Inf(1), buildS: math.Inf(1), probeS: math.Inf(1), totalS: math.Inf(1)}
		bests[o.name] = b
		c := &class{name: o.name, fn: o.fn, tuples: int64(o.in.R.NumTuples + o.in.S.NumTuples)}
		c.op = func() (any, error) { return o.call(o.in.R, o.in.S, o.opts) }
		c.check = func(out any) ([]simStat, error) {
			res, ref := out.(*hashjoin.Result), refs[o.in]
			if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
				return nil, fmt.Errorf("matches/checksum %d/%#x, non-partitioned reference %d/%#x",
					res.Matches, res.Checksum, ref.Matches, ref.Checksum)
			}
			if res.FellBack || res.DummyKeyRepartition {
				return nil, fmt.Errorf("partitioning left the simulated clock (fell back %v, dummy-key repartition %v)",
					res.FellBack, res.DummyKeyRepartition)
			}
			b.partitionS = math.Min(b.partitionS, res.PartitionTime().Seconds())
			b.buildS = math.Min(b.buildS, res.Build.Seconds())
			b.probeS = math.Min(b.probeS, res.Probe.Seconds())
			b.totalS = math.Min(b.totalS, res.Total.Seconds())
			sim := []simStat{{"matches", res.Matches}, {"checksum", int64(res.Checksum)}}
			if o.hybrid {
				sim = append(sim, simStat{"sim_partition_ns", res.PartitionTime().Nanoseconds()})
			}
			if m := res.Memory; m != nil {
				mems[o.name] = m
				sim = append(sim, simStat{"spilled_partitions", int64(m.SpilledPartitions)},
					simStat{"spilled_bytes", m.SpilledBytes}, simStat{"spill_read_bytes", m.SpillReadBytes},
					simStat{"recursions", int64(m.Recursions)}, simStat{"reversals", int64(m.Reversals)},
					simStat{"broadcasts", int64(m.Broadcasts)}, simStat{"max_depth", int64(m.MaxDepth)},
					simStat{"high_water_bytes", m.HighWaterBytes})
			}
			return sim, nil
		}
		if traced {
			c.traced = joinTraced(o, &hybridCycles)
		}
		wl.classes = append(wl.classes, c)
	}
	wl.genS, wl.genTuples = gen.genS, gen.tuples
	wl.finish = func(run *runState) error {
		hybrid := run.class("hybrid_pad_rid")
		if ns := hybrid.stat("sim_partition_ns"); ns > 0 {
			run.res.EndToEnd.set("sim_mtuples_per_s", float64(hybrid.tuples)/float64(ns)*1e3)
		}
		if spill := mems["cpu_budget_spill"]; spill == nil || spill.SpilledPartitions != budgetFan {
			return fmt.Errorf("cpu_budget_spill: want all %d partitions spilled, got %+v", budgetFan, spill)
		}
		if !run.traced {
			return nil
		}
		l, tr := run.res.Layers, run.tr
		var partS, buildS, probeS float64
		for _, name := range []string{"cpu_radix", "cpu_budget_spill", "cpu_budget_skew"} {
			partS += bests[name].partitionS
			buildS += bests[name].buildS
			probeS += bests[name].probeS
		}
		l.set("hashjoin.partition_ms", 1e3*partS)
		l.set("hashjoin.build_ms", 1e3*buildS)
		l.set("hashjoin.probe_ms", 1e3*probeS)
		l.set("hashjoin.hybrid_sim_partition_us", 1e6*bests["hybrid_pad_rid"].partitionS)
		l.set("hashjoin.hybrid_total_ms", 1e3*bests["hybrid_pad_rid"].totalS)

		var opCPU, traceWall, opWall float64
		for _, fn := range []string{"hashjoin.CPU", "hashjoin.NonPartitioned", "hashjoin.Hybrid"} {
			opCPU += tr.best("", fn).cpuS
			opWall += tr.best("", fn).wallS
			traceWall += tr.best("", fn+"+simtrace").wallS
		}
		var childCPU float64
		for _, fn := range []string{"partition.Partition", "joincore.BuildProbe", "joincore.BudgetedBuildProbe", "joincore.NonPartitioned"} {
			childCPU += tr.best("", fn).cpuS
		}
		l.set("hashjoin.self_cpu_ms", 1e3*(opCPU-childCPU))
		l.set("harness.trace_overhead_pct", 100*(traceWall/opWall-1))
		l.set("joincore.build_probe_ms", 1e3*tr.best("", "joincore.BuildProbe").wallS)
		l.set("joincore.ns_per_probe_tuple",
			1e9*tr.best("cpu_radix", "joincore.BuildProbe").wallS/float64(uniform.S.NumTuples))
		l.set("joincore.budgeted_ms", 1e3*tr.best("", "joincore.BudgetedBuildProbe").wallS)

		var spilled, read, rec, rev, bc, depth, high int64
		for _, m := range mems {
			spilled += m.SpilledBytes
			read += m.SpillReadBytes
			rec += int64(m.Recursions)
			rev += int64(m.Reversals)
			bc += int64(m.Broadcasts)
			depth = max(depth, int64(m.MaxDepth))
			high = max(high, m.HighWaterBytes)
		}
		l.set("joincore.spilled_bytes", float64(spilled))
		l.set("joincore.spill_read_bytes", float64(read))
		l.set("joincore.recursions", float64(rec))
		l.set("joincore.reversals", float64(rev))
		l.set("joincore.broadcasts", float64(bc))
		l.set("joincore.max_depth", float64(depth))
		l.set("joincore.budget_high_water_bytes", float64(high))

		l.set("core.cycles", float64(hybridCycles))
		l.set("core.cycles_per_ktuple", 1e3*float64(hybridCycles)/float64(hybrid.tuples))
		return nil
	}
	return wl, nil
}

// joinTraced builds a class's traced hook: the join again with a simtrace
// session attached, then shadows of the two phases below it — partitioning
// through package partition, build+probe through joincore.
func joinTraced(o joinOp, hybridCycles *int64) func(*tracer, int) error {
	return func(tr *tracer, parent int) error {
		topts := o.opts
		topts.Trace = simtrace.NewSession()
		if err := tr.shadow(parent, o.fn+"+simtrace", func() error {
			_, err := o.call(o.in.R, o.in.S, topts)
			return err
		}); err != nil {
			return err
		}
		if o.partitioner == nil {
			err := tr.shadow(parent, "joincore.NonPartitioned", func() error {
				_, err := joincore.NonPartitioned(o.in.R, o.in.S, o.opts.Threads)
				return err
			})
			return err
		}
		p, err := o.partitioner()
		if err != nil {
			return err
		}
		var pr, ps *partition.Result
		if err := tr.shadow(parent, "partition.Partition", func() (err error) {
			if pr, err = p.Partition(o.in.R); err != nil {
				return err
			}
			ps, err = p.Partition(o.in.S)
			return err
		}); err != nil {
			return err
		}
		if o.hybrid {
			*hybridCycles = pr.Stats.Cycles + ps.Stats.Cycles
		}
		if o.opts.MemoryBudgetBytes > 0 {
			err = tr.shadow(parent, "joincore.BudgetedBuildProbe", func() error {
				_, _, err := joincore.BudgetedBuildProbe(pr, ps, joincore.BudgetConfig{
					Budget:  membudget.New(o.opts.MemoryBudgetBytes),
					Spill:   &membudget.SpillStore{},
					Threads: o.opts.Threads,
				})
				return err
			})
			return err
		}
		err = tr.shadow(parent, "joincore.BuildProbe", func() error {
			_, err := joincore.BuildProbe(pr, ps, o.opts.Threads)
			return err
		})
		return err
	}
}
