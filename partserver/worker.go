package partserver

import (
	"fmt"

	"fpgapart/internal/core"
	"fpgapart/internal/cpupart"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/workload"
)

// execOut is one job's execution outcome as reported by a worker. The
// scheduler reads it only after receiving the batch back on the resource's
// done channel, so the channel send/receive orders worker writes before
// scheduler reads.
type execOut struct {
	ok       bool
	overflow bool
	errMsg   string
	// cycles is the simulated circuit time of the run (FPGA executions
	// only, including aborted PAD-overflow attempts); the scheduler turns
	// it into virtual microseconds.
	cycles   int64
	tuples   int64
	counts   []int64
	offsets  []int64
	checksum uint32
	matches  int64
	// spilledBytes / joinDepth describe a budgeted join's adaptive run
	// (deterministic: derived from replayed accounting, not wall clock).
	spilledBytes int64
	joinDepth    int
}

// joinParts joins the partitioned sides, budgeted when the job carries a
// per-tenant memory budget. Single-threaded either way, so the execution is
// bit-reproducible.
func joinParts(build, probe joincore.Partitions, spec *Job, out *execOut) error {
	if spec.MemoryBudgetBytes > 0 {
		budget := membudget.New(spec.MemoryBudgetBytes)
		spill := &membudget.SpillStore{}
		jr, stats, err := joincore.BudgetedBuildProbe(build, probe, joincore.BudgetConfig{
			Budget:  budget,
			Spill:   spill,
			Threads: 1,
		})
		if err != nil {
			return err
		}
		out.matches = jr.Matches
		out.checksum = fold64(jr.Checksum)
		out.spilledBytes = stats.SpilledBytes
		out.joinDepth = stats.MaxDepth
		return nil
	}
	jr, err := joincore.BuildProbe(build, probe, 1)
	if err != nil {
		return err
	}
	out.matches = jr.Matches
	out.checksum = fold64(jr.Checksum)
	return nil
}

// startWorker spawns the goroutine serving one resource. Workers are pure
// executors: they hold no scheduling policy, draw no randomness, and never
// touch the simtrace session (all emission happens on the scheduler loop).
// A panic inside the simulator is recovered per job and reported in the
// job's execOut — a caller-side guard cannot catch a goroutine's panic.
func startWorker(r *resource, cfg Config) {
	run := cpuWorker{}.runJob
	if r.kind == PlacedFPGA {
		run = (&fpgaWorker{cfg: cfg}).runJob
	}
	safely := func(j *jobState) {
		defer func() {
			if rec := recover(); rec != nil {
				j.out = execOut{errMsg: fmt.Sprintf("%v worker: %v", r.kind, rec)}
			}
		}()
		run(j)
	}
	go func() {
		for b := range r.work {
			for _, j := range b.jobs {
				safely(j)
			}
			r.done <- b
		}
	}()
}

// fpgaWorker drives one simulated FPGA partitioner instance. The circuit is
// stateful hardware — one instance runs one job at a time — so the worker
// owns it exclusively and rebuilds it only when the scheduler dispatches a
// different configuration (the virtual reconfiguration the scheduler
// charges ReconfigUS for).
type fpgaWorker struct {
	cfg     Config
	circuit *core.Circuit
	loaded  configKey
	hasCkt  bool
}

func (w *fpgaWorker) runJob(j *jobState) {
	if !w.hasCkt || w.loaded != j.key {
		cfg, err := circuitConfig(&j.spec)
		if err != nil {
			j.out = execOut{errMsg: err.Error()}
			return
		}
		ckt, err := core.NewCircuit(cfg, w.cfg.Platform.FPGAClockHz, w.cfg.Platform.FPGAAlone)
		if err != nil {
			j.out = execOut{errMsg: err.Error()}
			return
		}
		w.circuit, w.loaded, w.hasCkt = ckt, j.key, true
	}

	build, stats, err := w.circuit.Partition(j.spec.Rel)
	if err != nil {
		out := execOut{errMsg: err.Error()}
		if stats != nil {
			out.cycles = stats.Cycles
			out.overflow = stats.Overflowed
		}
		j.out = out
		return
	}
	out := execOut{ok: true, cycles: stats.Cycles}
	fillFromFPGA(&out, build)

	if j.spec.Probe != nil {
		probe, pstats, err := w.circuit.Partition(j.spec.Probe)
		if err != nil {
			res := execOut{errMsg: err.Error(), cycles: out.cycles}
			if pstats != nil {
				res.cycles += pstats.Cycles
				res.overflow = pstats.Overflowed
			}
			j.out = res
			return
		}
		out.cycles += pstats.Cycles
		if err := joinParts(fpgaParts{build}, fpgaParts{probe}, &j.spec, &out); err != nil {
			j.out = execOut{errMsg: err.Error(), cycles: out.cycles}
			return
		}
	}
	j.out = out
}

// cpuWorker drives one CPU partitioner slot. It runs single-threaded so the
// produced tuple order (not just the multiset) is identical across runs.
type cpuWorker struct{}

func (w cpuWorker) runJob(j *jobState) {
	build, err := w.partition(j.spec.Rel, &j.spec)
	if err != nil {
		j.out = execOut{errMsg: err.Error()}
		return
	}
	out := execOut{ok: true}
	fillFromCPU(&out, build)

	if j.spec.Probe != nil {
		probe, err := w.partition(j.spec.Probe, &j.spec)
		if err != nil {
			j.out = execOut{errMsg: err.Error()}
			return
		}
		if err := joinParts(cpuParts{build}, cpuParts{probe}, &j.spec, &out); err != nil {
			j.out = execOut{errMsg: err.Error()}
			return
		}
	}
	j.out = out
}

// partition runs the software partitioner over rel. Column-layout relations
// (VRID jobs degraded to the CPU) are first materialized as <key, VRID>
// rows, mirroring partition.NewFPGA's overflow fallback, so the output
// payload convention — and hence the checksum — matches the FPGA's.
func (w cpuWorker) partition(rel *workload.Relation, spec *Job) (*cpupart.Result, error) {
	if rel.Layout == workload.ColumnLayout {
		rows, err := workload.NewRelation(workload.RowLayout, 8, rel.NumTuples)
		if err != nil {
			return nil, err
		}
		for i, k := range rel.Keys {
			rows.SetTuple(i, k, uint32(i))
		}
		rel = rows
	}
	return cpupart.Partition(rel, cpupart.Config{
		NumPartitions: spec.FanOut,
		Hash:          spec.Hash,
		Threads:       1,
	})
}

// fillFromFPGA derives the job-visible output shape from a circuit run.
func fillFromFPGA(out *execOut, o *core.Output) {
	out.counts = append([]int64(nil), o.Counts...)
	out.offsets = prefixSums(out.counts)
	out.tuples = out.offsets[len(out.offsets)-1]
	var h uint32
	for p := 0; p < o.NumPartitions; p++ {
		o.Partition(p, func(k, pay uint32, _ []uint64) {
			h += tupleHash(k, pay)
		})
	}
	out.checksum = h
}

// fillFromCPU derives the job-visible output shape from a software run.
func fillFromCPU(out *execOut, r *cpupart.Result) {
	out.counts = make([]int64, r.NumPartitions)
	for p := 0; p < r.NumPartitions; p++ {
		out.counts[p] = r.Count(p)
	}
	out.offsets = prefixSums(out.counts)
	out.tuples = out.offsets[len(out.offsets)-1]
	var h uint32
	for p := 0; p < r.NumPartitions; p++ {
		for _, t := range r.Partition(p) {
			h += tupleHash(uint32(t), uint32(t>>32))
		}
	}
	out.checksum = h
}

// tupleHash is the per-tuple term of the order-insensitive multiset
// checksum — the same formula as partition.Result.PartitionChecksum, so a
// scheduled job's checksum is directly comparable to a single-tenant run.
func tupleHash(key, payload uint32) uint32 {
	return hashutil.Murmur32Finalizer(key ^ hashutil.Murmur32Finalizer(payload))
}

func prefixSums(counts []int64) []int64 {
	offsets := make([]int64, len(counts)+1)
	for p, c := range counts {
		offsets[p+1] = offsets[p] + c
	}
	return offsets
}

// fold64 compresses joincore's 64-bit pair checksum to the 32-bit result
// field.
func fold64(cs uint64) uint32 { return uint32(cs) ^ uint32(cs>>32) }

// fpgaParts adapts a circuit output to joincore.Partitions.
type fpgaParts struct{ o *core.Output }

func (f fpgaParts) NumPartitions() int { return f.o.NumPartitions }
func (f fpgaParts) SlotCount(p int) int {
	return int(f.o.LinesUsed[p]) * f.o.TuplesPerLine()
}
func (f fpgaParts) Slot(p, i int) (key, payload uint32, ok bool) {
	wpt := f.o.TupleWidth / 8
	w := f.o.Lines[f.o.Base[p]*8+int64(i*wpt)]
	key = uint32(w)
	if key == f.o.DummyKey {
		return 0, 0, false
	}
	return key, uint32(w >> 32), true
}

// cpuParts adapts a software partitioning result to joincore.Partitions.
type cpuParts struct{ r *cpupart.Result }

func (c cpuParts) NumPartitions() int  { return c.r.NumPartitions }
func (c cpuParts) SlotCount(p int) int { return int(c.r.Count(p)) }
func (c cpuParts) Slot(p, i int) (key, payload uint32, ok bool) {
	t := c.r.Data[c.r.Offsets[p]+int64(i)]
	return uint32(t), uint32(t >> 32), true
}
