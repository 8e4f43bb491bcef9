package main

import (
	"fmt"
	"maps"
	"math"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/cpupart"
	"fpgapart/internal/model"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// generator times input generation inside set-up.
type generator struct {
	g      *workload.Generator
	genS   float64
	tuples int64
}

func newGenerator(seed int64) *generator {
	return &generator{g: workload.NewGenerator(seed)}
}

func (g *generator) timed(n int, f func() error) error {
	t0 := time.Now()
	err := f()
	g.genS += time.Since(t0).Seconds()
	g.tuples += int64(n)
	return err
}

func (g *generator) relation(d workload.Distribution, width, n int) (rel *workload.Relation, err error) {
	err = g.timed(n, func() error {
		rel, err = g.g.Relation(d, width, n)
		return err
	})
	return rel, err
}

func (g *generator) zipf(factor float64, n int) (rel *workload.Relation, err error) {
	err = g.timed(n, func() error {
		rel, err = g.g.ZipfRelation(factor, n, 8, n)
		return err
	})
	return rel, err
}

// digest is the oracle of a partitioning: the tuple count and a positional
// fold of every partition's order-insensitive checksum, so a tuple in the
// wrong partition changes it although the plain sum would not.
type digest struct {
	tuples int64
	fold   uint64
}

func digestOf(res *partition.Result) digest {
	d := digest{tuples: res.TotalTuples()}
	for p := 0; p < res.NumPartitions(); p++ {
		d.fold = d.fold*1099511628211 + uint64(res.PartitionChecksum(p)) + uint64(res.Count(p))<<32
	}
	return d
}

// references computes each distinct reference partitioning once: classes
// that share input, fan-out and partitioning function share the digest.
type references map[refKey]digest

type refKey struct {
	rel        *workload.Relation
	partitions int
	hash       bool
}

func (r references) get(rel *workload.Relation, partitions int, hash bool, backend func() (partition.Partitioner, error)) (digest, error) {
	key := refKey{rel, partitions, hash}
	if d, ok := r[key]; ok {
		return d, nil
	}
	p, err := backend()
	if err != nil {
		return digest{}, err
	}
	res, err := p.Partition(rel)
	if err != nil {
		return digest{}, err
	}
	r[key] = digestOf(res)
	return r[key], nil
}

// cpuReference is the reference of every circuit op: the CPU backend on the
// same rows.
func (r references) cpuReference(rows *workload.Relation, partitions int, hash bool) (digest, error) {
	return r.get(rows, partitions, hash, func() (partition.Partitioner, error) {
		return partition.NewCPU(partition.CPUOptions{Partitions: partitions, Hash: hash, Threads: 1})
	})
}

// steadyPad is the PAD headroom of the classes that must stay on the circuit.
// At 2^19 tuples and fan-out 8192 a partition holds 64 ± 8 tuples, and with
// the default 15 % headroom about one seed in thirty overflows.
const steadyPad = 1.0

// circuitOp describes one class of the circuit workloads.
type circuitOp struct {
	name string
	// rows is the 8-byte row relation the CPU reference partitions; in is
	// what the circuit reads (rows itself, its column form, or a wide twin).
	rows, in *workload.Relation
	opts     partition.FPGAOptions
	fallback bool // the op must report FellBack, inside the scale's overflow window
	modelled bool // one of the four 8-byte modes the closed-form model covers
}

// coreConfig mirrors partition.NewFPGA's mapping of options to the circuit.
func coreConfig(o partition.FPGAOptions) core.Config {
	cfg := core.Config{NumPartitions: o.Partitions, TupleWidth: o.TupleWidth, Hash: o.Hash, PadFraction: o.PadFraction}
	if cfg.TupleWidth == 0 {
		cfg.TupleWidth = 8
	}
	if o.Format == partition.PadMode {
		cfg.Format = core.PAD
	}
	if o.Layout == partition.ColumnStore {
		cfg.Layout = core.VRID
	}
	return cfg
}

// fpgaStats lists a circuit run's simulated statistics in a fixed order.
func fpgaStats(res *partition.Result) []simStat {
	s := res.Stats
	overflows := int64(0)
	if s.Overflowed {
		overflows = 1
	}
	out := []simStat{
		{"cycles", s.Cycles}, {"histogram_cycles", s.HistogramCycles}, {"flush_cycles", s.FlushCycles},
		{"stalls_backpressure", s.StallsBackpressure}, {"stalls_hazard", s.StallsHazard},
		{"hazards_forwarded", s.ForwardedHazards}, {"hash_bubbles", s.HashPipelineBubbles},
		{"dummies", s.Dummies}, {"lines_read", s.LinesRead}, {"lines_written", s.LinesWritten},
		{"page_translations", s.PageTranslations}, {"bram_reads", s.CombinerBRAMReads},
		{"bram_writes", s.CombinerBRAMWrites}, {"pad_overflows", overflows},
		{"overflow_at_tuple", s.OverflowAtTuple}, {"tuples_in", s.TuplesIn},
	}
	// A fallback's elapsed time mixes the simulated aborted pass with the
	// measured CPU rerun, so it is not a simulated statistic.
	if !res.FellBack() {
		out = append(out, simStat{"elapsed_ns", res.Elapsed().Nanoseconds()})
	}
	return out
}

// traceGauges are the simtrace gauges the traced circuit op reports.
var traceGauges = []string{"fifo.stage1.high_water", "qpi.bytes_per_cycle_x100", "combiner.bram.port_util_x100"}

// circuitState is what the circuit workloads keep between the rounds and
// their finish hook.
type circuitState struct {
	plat      *platform.Platform
	checksums sweeps
	gauges    map[string]map[string]int64
}

func buildCircuitWorkload(name string, ops []circuitOp, gen *generator, sc scale, traced bool) (*bench, error) {
	st := &circuitState{plat: platform.XeonFPGA(), checksums: sweeps{}, gauges: map[string]map[string]int64{}}
	refs := references{}
	wl := &bench{name: name}
	for _, o := range ops {
		o := o
		ref, err := refs.cpuReference(o.rows, o.opts.Partitions, o.opts.Hash)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", o.name, err)
		}
		p, err := partition.NewFPGA(o.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		c := &class{name: o.name, fn: "partition.Partition", tuples: int64(o.in.NumTuples)}
		c.op = func() (any, error) { return p.Partition(o.in) }
		c.check = func(out any) ([]simStat, error) {
			res := out.(*partition.Result)
			t0 := time.Now()
			got := digestOf(res)
			st.checksums.observe(o.name, t0)
			if got != ref {
				return nil, fmt.Errorf("digest %+v, CPU reference %+v", got, ref)
			}
			if res.FellBack() != o.fallback {
				return nil, fmt.Errorf("FellBack() = %v, want %v", res.FellBack(), o.fallback)
			}
			if at := float64(res.Stats.OverflowAtTuple) / float64(o.in.NumTuples); o.fallback && (at < sc.overflowLo || at > sc.overflowHi) {
				return nil, fmt.Errorf("overflow after %.0f %% of the input, want %.0f %% to %.0f %%", 100*at, 100*sc.overflowLo, 100*sc.overflowHi)
			}
			return fpgaStats(res), nil
		}
		if traced {
			c.traced, err = circuitTraced(o, st)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.name, err)
			}
		}
		wl.classes = append(wl.classes, c)
	}
	wl.genS, wl.genTuples = gen.genS, gen.tuples
	wl.finish = func(run *runState) error { return finishCircuit(run, ops, st) }
	return wl, nil
}

// circuitTraced builds a class's traced hook: the op again with a simtrace
// session attached, then shadows of the circuit (and, after an overflow, of
// the CPU fallback) on the same input.
func circuitTraced(o circuitOp, st *circuitState) (func(*tracer, int) error, error) {
	cfg := coreConfig(o.opts)
	ckt, err := core.NewCircuit(cfg, st.plat.FPGAClockHz, st.plat.FPGAAlone)
	if err != nil {
		return nil, err
	}
	return func(tr *tracer, parent int) error {
		sess := simtrace.NewSession()
		topts := o.opts
		topts.Trace = sess
		tp, err := partition.NewFPGA(topts)
		if err != nil {
			return err
		}
		if err := tr.shadow(parent, "partition.Partition+simtrace", func() error {
			_, err := tp.Partition(o.in)
			return err
		}); err != nil {
			return err
		}
		g := map[string]int64{}
		snap := sess.Snapshot()
		for _, name := range traceGauges {
			if m, ok := snap.Get(name); ok {
				g[name] = m.Value
				if name == "fifo.stage1.high_water" {
					g[name] = m.Max
				}
			}
		}
		if prev, ok := st.gauges[o.name]; ok && !maps.Equal(prev, g) {
			return fmt.Errorf("simtrace gauges differ between rounds: %v vs %v", g, prev)
		}
		st.gauges[o.name] = g

		if err := tr.shadow(parent, "core.NewCircuit", func() error {
			_, err := core.NewCircuit(cfg, st.plat.FPGAClockHz, st.plat.FPGAAlone)
			return err
		}); err != nil {
			return err
		}
		if err := tr.shadow(parent, "core.Circuit.Partition", func() error {
			_, _, err := ckt.Partition(o.in)
			if o.fallback && err != nil {
				return nil // the overflow abort is the work being replayed
			}
			return err
		}); err != nil {
			return err
		}
		if o.fallback {
			err := tr.shadow(parent, "cpupart.Partition", func() error {
				_, err := cpupart.Partition(o.rows, cpupart.Config{NumPartitions: o.opts.Partitions,
					Hash: o.opts.Hash, Threads: o.opts.FallbackThreads})
				return err
			})
			return err
		}
		return nil
	}, nil
}

// modeOf maps a class's options to the model's mode.
func modeOf(o partition.FPGAOptions) model.Mode {
	return model.Mode{Hist: o.Format == partition.HistMode, VRID: o.Layout == partition.ColumnStore}
}

func finishCircuit(run *runState, ops []circuitOp, st *circuitState) error {
	// Simulated throughput, from the runs that stayed on the simulated clock.
	var simRates []float64
	for _, c := range run.wl.classes {
		if ns := c.stat("elapsed_ns"); ns > 0 {
			simRates = append(simRates, float64(c.tuples)/float64(ns)*1e3)
		}
	}
	run.res.EndToEnd.set("sim_mtuples_per_s", geomean(simRates))
	run.simHostRate()
	if !run.traced {
		return nil
	}

	l, tr := run.res.Layers, run.tr
	for _, name := range []string{"cycles", "histogram_cycles", "flush_cycles", "stalls_backpressure",
		"stalls_hazard", "hazards_forwarded", "hash_bubbles", "dummies", "lines_read", "lines_written",
		"page_translations", "bram_reads", "bram_writes", "pad_overflows"} {
		l.set("core."+name, float64(run.simSum(name)))
	}
	cycles := run.simSum("cycles")
	l.set("core.cycles_per_ktuple", 1e3*float64(cycles)/float64(run.simSum("tuples_in")))
	for _, name := range traceGauges {
		var m int64
		for _, g := range st.gauges {
			if g[name] > m {
				m = g[name]
			}
		}
		l.set(name, float64(m))
	}

	// Steady-state agreement with the closed-form model: the simulated rate
	// with the flush excluded against P_total, over the four 8-byte modes.
	steady := -1.0
	for i, o := range ops {
		if !o.modelled {
			continue
		}
		c := run.wl.classes[i]
		want := model.ForMode(modeOf(o.opts), st.plat, c.tuples).TotalRate()
		got := float64(c.tuples) * st.plat.FPGAClockHz / float64(c.stat("cycles")-c.stat("flush_cycles"))
		steady = math.Max(steady, 100*math.Abs(got-want)/want)
	}
	if steady >= 0 {
		l.set("core.steady_model_err_pct", steady)
	}

	circuit := tr.best("", "core.Circuit.Partition")
	fallback := tr.best("", "cpupart.Partition")
	public := tr.best("", "partition.Partition")
	nClasses := float64(len(run.wl.classes))
	l.set("core.host_ns_per_cycle", 1e9*circuit.wallS/float64(cycles))
	l.set("core.cpu_ms_per_op", 1e3*circuit.cpuS/nClasses)
	l.set("core.alloc_bytes_per_op", circuit.allocBytes/nClasses)
	l.set("core.mallocs_per_op", circuit.mallocs/nClasses)
	l.set("core.new_circuit_us", 1e6*tr.best("", "core.NewCircuit").wallS/nClasses)
	l.set("partition.fpga_self_cpu_ms", 1e3*(public.cpuS-circuit.cpuS-fallback.cpuS))
	if fallback.n > 0 {
		l.set("cpupart.fallback_ms", 1e3*fallback.wallS)
	}
	l.set("partition.checksum_ms", st.checksums.totalMS())
	l.set("harness.trace_overhead_pct", 100*(tr.best("", "partition.Partition+simtrace").wallS/public.wallS-1))
	return nil
}

func setupCircuitSteady(seed int64, sc scale, traced bool) (*bench, error) {
	gen := newGenerator(seed)
	rows, err := gen.relation(workload.Random, 8, sc.circuitN)
	if err != nil {
		return nil, err
	}
	wide, err := gen.relation(workload.Random, 64, sc.wideN)
	if err != nil {
		return nil, err
	}
	wideKeys := make([]uint32, wide.NumTuples)
	for i := range wideKeys {
		wideKeys[i] = wide.Key(i)
	}
	wideRows, err := workload.FromKeys(wideKeys, 8)
	if err != nil {
		return nil, err
	}
	cols := rows.ToColumns()
	fpga := func(format partition.Format, layout partition.Layout, fan int) partition.FPGAOptions {
		return partition.FPGAOptions{Partitions: fan, Hash: true, Format: format, Layout: layout, PadFraction: steadyPad}
	}
	wideOpts := fpga(partition.HistMode, partition.RowStore, sc.fan)
	wideOpts.TupleWidth = 64
	ops := []circuitOp{
		{name: "pad_rid", rows: rows, in: rows, opts: fpga(partition.PadMode, partition.RowStore, sc.fan), modelled: true},
		{name: "hist_rid", rows: rows, in: rows, opts: fpga(partition.HistMode, partition.RowStore, sc.fan), modelled: true},
		{name: "pad_vrid", rows: rows, in: cols, opts: fpga(partition.PadMode, partition.ColumnStore, sc.fan), modelled: true},
		{name: "hist_vrid", rows: rows, in: cols, opts: fpga(partition.HistMode, partition.ColumnStore, sc.fan), modelled: true},
		{name: "hist_rid_w64", rows: wideRows, in: wide, opts: wideOpts},
		{name: "pad_rid_fan16", rows: rows, in: rows, opts: fpga(partition.PadMode, partition.RowStore, 16)},
	}
	wl, err := buildCircuitWorkload("circuit_steady", ops, gen, sc, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		finish := wl.finish
		wl.finish = func(run *runState) error {
			if err := finish(run); err != nil {
				return err
			}
			pct, err := modelError(seed, sc)
			if err != nil {
				return err
			}
			run.res.EndToEnd.set("sim_model_err_pct", pct)
			return nil
		}
	}
	return wl, nil
}

// modelError is sim_model_err_pct: the largest disagreement, over the four
// 8-byte modes, between the simulated end-to-end rate and the closed-form
// model's P_total at the model size and the paper's fan-out.
func modelError(seed int64, sc scale) (float64, error) {
	plat := platform.XeonFPGA()
	rows, err := workload.NewGenerator(seed).Relation(workload.Random, 8, sc.modelN)
	if err != nil {
		return 0, err
	}
	cols := rows.ToColumns()
	var worst float64
	for _, m := range []model.Mode{{}, {Hist: true}, {VRID: true}, {Hist: true, VRID: true}} {
		opts := partition.FPGAOptions{Partitions: sc.fan, Hash: true, Format: partition.PadMode, PadFraction: steadyPad}
		in := rows
		if m.Hist {
			opts.Format = partition.HistMode
		}
		if m.VRID {
			opts.Layout, in = partition.ColumnStore, cols
		}
		p, err := partition.NewFPGA(opts)
		if err != nil {
			return 0, err
		}
		res, err := p.Partition(in)
		if err != nil {
			return 0, err
		}
		if res.FellBack() {
			return 0, fmt.Errorf("model check %+v fell back to the CPU", m)
		}
		want := model.ForMode(m, plat, int64(sc.modelN)).TotalRate()
		got := float64(sc.modelN) / res.Elapsed().Seconds()
		worst = math.Max(worst, 100*math.Abs(got-want)/want)
	}
	return worst, nil
}

func setupCircuitSkew(seed int64, sc scale, traced bool) (*bench, error) {
	gen := newGenerator(seed)
	n := sc.circuitN
	zipfHeavy, err := gen.zipf(1.25, n)
	if err != nil {
		return nil, err
	}
	zipfMild, err := gen.zipf(0.75, n)
	if err != nil {
		return nil, err
	}
	grid, err := gen.relation(workload.Grid, 8, n)
	if err != nil {
		return nil, err
	}
	linear, err := gen.relation(workload.Linear, 8, n)
	if err != nil {
		return nil, err
	}
	ops := []circuitOp{
		{name: "zipf_hist_hash", rows: zipfHeavy, in: zipfHeavy,
			opts: partition.FPGAOptions{Partitions: sc.fan, Hash: true, Format: partition.HistMode}},
		{name: "zipf_pad_fallback", rows: zipfMild, in: zipfMild, fallback: true,
			opts: partition.FPGAOptions{Partitions: min(256, sc.fan), Hash: true, Format: partition.PadMode,
				PadFraction: 0.15, FallbackThreads: 1}},
		{name: "grid_hist_radix", rows: grid, in: grid,
			opts: partition.FPGAOptions{Partitions: sc.fan, Format: partition.HistMode}},
		{name: "linear_pad_radix", rows: linear, in: linear,
			opts: partition.FPGAOptions{Partitions: sc.fan, Format: partition.PadMode, PadFraction: steadyPad}},
	}
	return buildCircuitWorkload("circuit_skew", ops, gen, sc, traced)
}
