package perfbench

import (
	"fmt"

	"fpgapart/hashjoin"
	"fpgapart/internal/joincore"
	"fpgapart/internal/simtrace"
	"fpgapart/workload"
)

// The memory suite measures the degradation curve of the budgeted join: the
// same workload runs unconstrained once (the correctness reference), then at
// shrinking fractions of its build footprint. Everything gated is derived
// from the deterministic simulation — match counts, checksums, and the
// spill/recursion/broadcast counters the executor folds from its decision
// log — so the gate tolerates zero drift.

// memoryBudgetPcts is the degradation curve, in percent of the build side's
// in-memory footprint. 100% still budgets (the accounting machinery runs);
// 10% forces spilling, recursion, and heavy-hitter broadcasts.
var memoryBudgetPcts = []int64{100, 50, 25, 10}

// memoryWorkload is one skew point of the degradation curve.
type memoryWorkload struct {
	label string
	build func(cfg Config) (r, s *workload.Relation, err error)
}

func memoryWorkloads() []memoryWorkload {
	return []memoryWorkload{
		{"uniform", func(cfg Config) (*workload.Relation, *workload.Relation, error) {
			g := workload.NewGenerator(cfg.Seed)
			r, err := g.ZipfRelation(0, 1<<12, 8, cfg.Tuples/4)
			if err != nil {
				return nil, nil, err
			}
			s, err := g.ZipfRelation(0, 1<<12, 8, cfg.Tuples/2)
			return r, s, err
		}},
		{"zipf1.25", func(cfg Config) (*workload.Relation, *workload.Relation, error) {
			g := workload.NewGenerator(cfg.Seed)
			r, err := g.ZipfRelation(0, 1<<12, 8, cfg.Tuples/4)
			if err != nil {
				return nil, nil, err
			}
			s, err := g.ZipfRelation(1.25, 1<<12, 8, cfg.Tuples/2)
			return r, s, err
		}},
		// One join key covers ≥ 25% of both sides: the pathological bucket
		// no amount of repartitioning can shrink, exercising the
		// heavy-hitter broadcast path.
		{"heavyhitter", func(cfg Config) (*workload.Relation, *workload.Relation, error) {
			g := workload.NewGenerator(cfg.Seed)
			r, err := g.ZipfRelation(0, 1<<12, 8, cfg.Tuples/4)
			if err != nil {
				return nil, nil, err
			}
			s, err := g.ZipfRelation(1.25, 1<<12, 8, cfg.Tuples/2)
			if err != nil {
				return nil, nil, err
			}
			hot := r.Key(r.NumTuples - 1)
			for i := 0; i < r.NumTuples/4; i++ {
				r.SetTuple(i, hot, uint32(i))
			}
			for i := 0; i < s.NumTuples/4; i++ {
				s.SetTuple(i*2, hot, uint32(i))
			}
			return r, s, nil
		}},
	}
}

// memoryCells generates each workload and joins it unconstrained once; its
// four budget cells share both.
func memoryCells(cfg Config) ([]cell, error) {
	var cells []cell
	for _, w := range memoryWorkloads() {
		r, s, err := w.build(cfg)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.label, err)
		}
		ref, err := hashjoin.CPU(r, s, hashjoin.Options{Partitions: 8, Threads: 1, Hash: true})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", w.label, err)
		}
		buildBytes := int64(r.NumTuples) * joincore.BuildTupleBytes
		for _, pct := range memoryBudgetPcts {
			name := fmt.Sprintf("%s/%s/budget%d", SuiteMemory, w.label, pct)
			cells = append(cells, cell{name, func() (simtrace.Snapshot, error) {
				return runMemoryScenario(r, s, ref, buildBytes*pct/100)
			}})
		}
	}
	return cells, nil
}

func runMemoryScenario(r, s *workload.Relation, ref *hashjoin.Result, budget int64) (simtrace.Snapshot, error) {
	sess := simtrace.NewSession()
	opts := hashjoin.Options{
		Partitions: 8, Threads: 1, Hash: true,
		MemoryBudgetBytes: budget,
		Trace:             sess,
	}
	res, err := hashjoin.CPU(r, s, opts)
	if err != nil {
		return nil, err
	}
	if res.Memory == nil {
		return nil, fmt.Errorf("budgeted run reported no memory stats")
	}
	// The session snapshot already carries every join.mem_* gauge and
	// counter the budgeted join emitted; the deltas pin the budgeted result
	// to the unconstrained reference (both must stay zero forever).
	return sess.Snapshot().With(
		counter("join.matches", res.Matches),
		counter("join.checksum_hi", int64(res.Checksum>>32)),
		counter("join.checksum_lo", int64(res.Checksum&0xffffffff)),
		counter("join.delta_matches_vs_unbudgeted", res.Matches-ref.Matches),
		counter("join.delta_checksum_vs_unbudgeted", int64(res.Checksum^ref.Checksum)),
	), nil
}
