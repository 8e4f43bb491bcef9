package partserver

import (
	"errors"
	"fmt"

	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/partition"
	"fpgapart/workload"
)

// execOut is one job's execution outcome, written by runJob inside dispatch
// and read by the scheduler from then on.
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
	checksum uint32
	matches  int64
	// spilledBytes is a budgeted join's spill volume (deterministic:
	// derived from replayed accounting, not wall clock).
	spilledBytes int64
}

// partitioner returns the slot's partitioner for key. The FPGA never falls
// back by itself: an overflowed job goes back to the scheduler, which
// degrades it to the CPU pool. CPU slots run single-threaded so the produced
// tuple order (not just the multiset) is identical across runs.
func (r *resource) partitioner(key configKey) (p partition.Partitioner, err error) {
	if p, ok := r.parts[key]; ok {
		return p, nil
	}
	if r.kind == PlacedFPGA {
		p, err = partition.NewFPGA(partition.FPGAOptions{
			Partitions:      key.fanOut,
			Hash:            key.hash,
			Format:          key.format,
			Layout:          key.layout,
			PadFraction:     0.5,
			Platform:        r.platform,
			DisableFallback: true,
		})
	} else {
		p, err = partition.NewCPU(partition.CPUOptions{Partitions: key.fanOut, Hash: key.hash, Threads: 1})
	}
	if err == nil {
		r.parts[key] = p
	}
	return p, err
}

// runJob executes j on the slot — the host work of a dispatch, which draws
// no randomness, decides no policy and touches no trace session — and
// reports in j.out; with a Memo, the outcome is the request's memoised one on
// this backend when there is one.
func (r *resource) runJob(j *jobState) {
	if r.memo != nil {
		j.out = r.memo.outcome(r, j)
		return
	}
	j.out = r.run(&j.spec, j.key)
}

// run executes spec on the slot. A panic on the way (the partitioners guard
// their own, the single-threaded join runs unguarded) is recovered here, per
// job, and reported as that job's failure, which the scheduler turns into a
// failed or CPU-degraded job: the fault boundary is the job, not the Step
// that dispatched it.
func (r *resource) run(spec *Job, key configKey) (out execOut) {
	defer func() {
		if rec := recover(); rec != nil {
			out = execOut{errMsg: fmt.Sprintf("%v worker: %v", r.kind, rec)}
		}
	}()
	if err := r.execute(spec, key, &out); err != nil {
		// A failed job reports only what the scheduler charges for: the
		// circuit time spent, and whether the circuit aborted it.
		return execOut{errMsg: err.Error(), cycles: out.cycles, overflow: out.overflow}
	}
	out.ok = true
	return out
}

// execute partitions the job's relation and, for a join job, its probe side,
// and joins them. A partition job's checksum is the sum of
// partition.Result.PartitionChecksum over the partitions, so it is directly
// comparable to a single-tenant run; a join job's is that of its pairs.
func (r *resource) execute(spec *Job, key configKey, out *execOut) error {
	p, err := r.partitioner(key)
	if err != nil {
		return err
	}
	build, err := out.partition(p, spec.Rel)
	if err != nil {
		return err
	}
	out.fill(build)
	if spec.Probe == nil {
		for part := range out.counts {
			out.checksum += build.PartitionChecksum(part)
		}
		return nil
	}
	probe, err := out.partition(p, spec.Probe)
	if err != nil {
		return err
	}
	return out.join(build, probe, spec.MemoryBudgetBytes)
}

// partition runs p over rel and charges its simulated circuit time — also
// that of a PAD attempt the circuit aborted, which the overflow error
// carries. A circuit run whose output lost tuples — keyed with its dummy
// key, they read back as flush padding — is an error too, charged like
// any other run: the scheduler degrades the job to the CPU pool.
func (out *execOut) partition(p partition.Partitioner, rel *workload.Relation) (*partition.Result, error) {
	res, err := p.Partition(rel)
	if err != nil {
		var ov *partition.OverflowError
		if errors.As(err, &ov) {
			out.cycles += ov.Aborted.Cycles
			out.overflow = true
		}
		return nil, err
	}
	out.cycles += res.Stats.Cycles
	if lost := int64(rel.NumTuples) - res.ValidTuples(); lost > 0 {
		return nil, fmt.Errorf("partserver: %d tuples carry the circuit's dummy key", lost)
	}
	return res, nil
}

// fill derives the job-visible output shape from the partitioned relation.
func (out *execOut) fill(res *partition.Result) {
	out.counts = make([]int64, res.NumPartitions())
	for p := range out.counts {
		out.counts[p] = res.Count(p)
		out.tuples += out.counts[p]
	}
}

// join joins the partitioned sides under the job's per-tenant memory budget
// (≤ 0: unlimited). Single-threaded, so the execution is bit-reproducible.
func (out *execOut) join(build, probe *partition.Result, budgetBytes int64) error {
	jr, stats, err := joincore.BudgetedBuildProbe(build, probe, joincore.BudgetConfig{
		Budget:  membudget.New(budgetBytes),
		Threads: 1,
	})
	if err != nil {
		return err
	}
	out.matches = jr.Matches
	out.checksum = fold64(jr.Checksum)
	// Deterministic: derived from replayed accounting, not wall clock.
	out.spilledBytes = stats.SpilledBytes
	return nil
}

// fold64 compresses joincore's 64-bit pair checksum to the 32-bit result
// field.
func fold64(cs uint64) uint32 { return uint32(cs) ^ uint32(cs>>32) }
