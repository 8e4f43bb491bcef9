package engine

import (
	"fmt"
	"runtime"

	"fpgapart/aggregate"
	"fpgapart/hashjoin"
	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/partition"
)

// HashJoin is a blocking partitioned equi-join operator: it drains both
// children, partitions them with the configured (or planner-chosen)
// partitioner, joins partition pairs in parallel, and streams out one tuple
// per match: <key, Combine(buildPayload, probePayload)>.
type HashJoin struct {
	build, probe Operator
	planner      *Planner
	partitions   int
	threads      int
	// Combine merges the payloads of a match (default: sum).
	Combine func(buildPay, probePay uint32) uint32
	// MemoryBudgetBytes caps this join's build memory; 0 falls back to the
	// planner's MemoryBudgetBytes, ≤ 0 overall means unlimited. Set before
	// Open.
	MemoryBudgetBytes int64

	out    []uint64
	pos    int
	opened bool
	// ChosenPartitioner records the planner's pick after Open, for
	// inspection ("was this offloaded?").
	ChosenPartitioner string
	// Memory reports the adaptive behaviour of a budgeted join after Open;
	// nil when no budget applied.
	Memory *hashjoin.MemoryStats
}

// NewHashJoin joins build ⋈ probe on the tuple key. planner may be nil for
// CPU-only execution.
func NewHashJoin(build, probe Operator, planner *Planner, partitions, threads int) *HashJoin {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &HashJoin{
		build:      build,
		probe:      probe,
		planner:    planner,
		partitions: partitions,
		threads:    threads,
		Combine:    func(a, b uint32) uint32 { return a + b },
	}
}

func (j *HashJoin) Open() error {
	r, err := drain(j.build)
	if err != nil {
		return fmt.Errorf("engine: join build side: %w", err)
	}
	s, err := drain(j.probe)
	if err != nil {
		return fmt.Errorf("engine: join probe side: %w", err)
	}
	planner := j.planner
	if planner == nil {
		planner = NewPlanner(PlannerConfig{ForceCPU: true, Threads: j.threads, Partitions: j.partitions})
	}
	p, err := planner.Partitioner(r.NumTuples)
	if err != nil {
		return err
	}
	pr, rVia, err := partition.Exact(p, r, planner.cfg.Hash, planner.cfg.Threads)
	if err != nil {
		return err
	}
	ps, sVia, err := partition.Exact(p, s, planner.cfg.Hash, planner.cfg.Threads)
	if err != nil {
		return err
	}
	j.ChosenPartitioner = rVia.Name()
	if sVia.Name() != rVia.Name() {
		j.ChosenPartitioner = rVia.Name() + " / " + sVia.Name()
	}
	budget := j.MemoryBudgetBytes
	if budget == 0 {
		budget = planner.cfg.MemoryBudgetBytes
	}
	j.out, j.Memory, err = joinTuples(pr, ps, j.threads, budget, j.Combine)
	if err != nil {
		return err
	}
	j.pos = 0
	j.opened = true
	return nil
}

func (j *HashJoin) Next() (Batch, error) {
	if !j.opened {
		return nil, errNotOpen
	}
	if j.pos >= len(j.out) {
		return nil, nil
	}
	end := j.pos + DefaultBatchSize
	if end > len(j.out) {
		end = len(j.out)
	}
	b := Batch(j.out[j.pos:end])
	j.pos = end
	return b, nil
}

func (j *HashJoin) Close() error {
	j.opened = false
	j.out = nil
	if err := j.build.Close(); err != nil {
		return err
	}
	return j.probe.Close()
}

// joinTuples materializes the join by running joincore's executor with
// an emit callback; budgetBytes ≤ 0 means unlimited. The emitted tuple order
// within a partition follows the executor's plan (either side may build,
// spilled buckets emit in recursion order), so the output is order-stable
// for a given budget and the match multiset is the same for every budget.
func joinTuples(r, s *partition.Result, threads int, budgetBytes int64, combine func(a, b uint32) uint32) ([]uint64, *hashjoin.MemoryStats, error) {
	perPart := make([][]uint64, r.NumPartitions())
	budget := membudget.New(budgetBytes)
	spill := &membudget.SpillStore{}
	_, stats, err := joincore.BudgetedBuildProbe(r, s, joincore.BudgetConfig{
		Budget:  budget,
		Spill:   spill,
		Threads: threads,
		// Each partition is joined by exactly one worker, so the appends
		// to perPart[p] are race-free.
		Emit: func(p int, key, rPay, sPay uint32) {
			perPart[p] = append(perPart[p], uint64(combine(rPay, sPay))<<32|uint64(key))
		},
	})
	if err != nil {
		return nil, nil, err
	}
	var total int
	for _, o := range perPart {
		total += len(o)
	}
	out := make([]uint64, 0, total)
	for _, o := range perPart {
		out = append(out, o...)
	}
	return out, hashjoin.NewMemoryStats(budget, spill, stats), nil
}

// GroupBy is a blocking aggregation operator: it drains its child,
// partitions by group key, aggregates per partition, and emits one tuple
// per group: <key, aggregate>, keys ascending.
type GroupBy struct {
	child      Operator
	planner    *Planner
	partitions int
	threads    int
	agg        AggKind

	out    []uint64
	pos    int
	opened bool
	// ChosenPartitioner records the planner's pick after Open.
	ChosenPartitioner string
}

// AggKind selects the aggregate GroupBy emits.
type AggKind int

const (
	AggCount AggKind = iota
	AggSum           // low 32 bits of the payload sum
	AggMin
	AggMax
)

// NewGroupBy aggregates child by key. planner may be nil for CPU-only.
func NewGroupBy(child Operator, planner *Planner, partitions, threads int, agg AggKind) *GroupBy {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &GroupBy{child: child, planner: planner, partitions: partitions, threads: threads, agg: agg}
}

func (g *GroupBy) Open() error {
	rel, err := drain(g.child)
	if err != nil {
		return err
	}
	planner := g.planner
	if planner == nil {
		planner = NewPlanner(PlannerConfig{ForceCPU: true, Threads: g.threads, Partitions: g.partitions})
	}
	p, err := planner.Partitioner(rel.NumTuples)
	if err != nil {
		return err
	}
	res, err := aggregate.Partitioned(rel, p, aggregate.Options{
		Threads:  g.threads,
		Hash:     planner.cfg.Hash,
		Platform: planner.cfg.Platform,
	})
	if err != nil {
		return err
	}
	g.ChosenPartitioner = res.PartitionerName
	g.out = g.out[:0]
	for _, grp := range res.Groups {
		val := uint32(grp.Count)
		switch g.agg {
		case AggSum:
			val = uint32(grp.Sum)
		case AggMin:
			val = grp.Min
		case AggMax:
			val = grp.Max
		}
		g.out = append(g.out, uint64(val)<<32|uint64(grp.Key))
	}
	g.pos = 0
	g.opened = true
	return nil
}

func (g *GroupBy) Next() (Batch, error) {
	if !g.opened {
		return nil, errNotOpen
	}
	if g.pos >= len(g.out) {
		return nil, nil
	}
	end := g.pos + DefaultBatchSize
	if end > len(g.out) {
		end = len(g.out)
	}
	b := Batch(g.out[g.pos:end])
	g.pos = end
	return b, nil
}

func (g *GroupBy) Close() error {
	g.opened = false
	g.out = nil
	return g.child.Close()
}
