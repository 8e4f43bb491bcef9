package joincore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpgapart/internal/hashutil"
	"fpgapart/internal/membudget"
	"fpgapart/workload"
)

// NonPartitioned is the no-partitioning hash join baseline (the alternative
// the paper's related work contrasts with partitioned joins): one global
// bucket-chaining hash table over R, built and probed in parallel. It avoids
// the partitioning passes but takes every probe as a cache and TLB miss on
// large relations.
func NonPartitioned(r, s *workload.Relation, threads int) (*Result, error) {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	n := r.NumTuples
	buckets := 1
	for buckets < n {
		buckets <<= 1
	}
	if buckets < 16 {
		buckets = 16
	}
	mask := uint32(buckets - 1)
	head := make([]int32, buckets)
	next := make([]int32, n)

	start := time.Now()
	// Parallel build: lock-free chain pushes with CAS on the bucket heads.
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for w := 0; w < threads; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				b := hashutil.Murmur32Finalizer(r.Key(i)) & mask
				for {
					old := atomic.LoadInt32(&head[b])
					next[i] = old
					if atomic.CompareAndSwapInt32(&head[b], old, int32(i)+1) {
						break
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	buildDone := time.Now()

	var matches int64
	var checksum uint64
	m := s.NumTuples
	chunk = (m + threads - 1) / threads
	for w := 0; w < threads; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var localM int64
			var localC uint64
			for i := lo; i < hi; i++ {
				key := s.Key(i)
				for slot := head[hashutil.Murmur32Finalizer(key)&mask]; slot != 0; {
					j := int(slot - 1)
					if r.Key(j) == key {
						localM++
						localC += uint64(r.Payload(j)) + uint64(s.Payload(i))
					}
					slot = next[j]
				}
			}
			atomic.AddInt64(&matches, localM)
			atomic.AddUint64(&checksum, localC)
		}(lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return &Result{
		Matches:  matches,
		Checksum: checksum,
		Elapsed:  elapsed,
		Build:    buildDone.Sub(start),
		Probe:    elapsed - buildDone.Sub(start),
		Threads:  threads,
	}, nil
}

// NonPartitionedBudgeted is the global-table baseline under a memory
// budget. The smaller side builds (role reversal at plan time); if even
// that side exceeds the budget, the join degrades to budget-sized build
// chunks, each probed with the full other side — there are no partitions
// to spill, so chunking is the only graceful degradation available to this
// baseline. Matches and Checksum equal NonPartitioned's for any budget.
func NonPartitionedBudgeted(r, s *workload.Relation, threads int, budget *membudget.Budget, spill *membudget.SpillStore) (*Result, *BudgetStats, error) {
	build, probe, reversed := r, s, false
	if s.NumTuples < r.NumTuples {
		build, probe, reversed = s, r, true
	}
	nBuild, nProbe := int64(build.NumTuples), int64(probe.NumTuples)
	cfg := BudgetConfig{Budget: budget, Spill: spill, Threads: threads}.withDefaults()
	stats := &BudgetStats{}
	if !budget.Limited() || nBuild*BuildTupleBytes <= budget.Cap() {
		stats.Decisions = append(stats.Decisions, Decision{
			Action: ActionInMemory, BuildTuples: nBuild, ProbeTuples: nProbe, Reversed: reversed,
		})
		res, err := NonPartitioned(build, probe, threads)
		if err != nil {
			return nil, nil, err
		}
		replayAccounting(stats, cfg)
		return res, stats, nil
	}

	// Chunked build: stage the packed sides through the spill store, then
	// run the broadcast joiner single-threaded (one global "partition").
	bs := packRelation(build)
	ps := packRelation(probe)
	spilled := 8 * (nBuild + nProbe)
	start := time.Now()
	pj := partitionJoiner{cfg: &cfg}
	chunks := pj.broadcast(bs, ps, !reversed)
	elapsed := time.Since(start)
	stats.Decisions = append(stats.Decisions,
		Decision{Action: ActionSpill, BuildTuples: nBuild, ProbeTuples: nProbe,
			Reversed: reversed, SpilledBytes: spilled},
		Decision{Action: ActionBroadcast, Depth: 1, BuildTuples: nBuild, ProbeTuples: nProbe,
			Reversed: reversed, SpilledBytes: spilled, Chunks: chunks},
	)
	replayAccounting(stats, cfg)
	res := &Result{
		Matches:  pj.matches,
		Checksum: pj.checksum,
		Elapsed:  elapsed,
		Threads:  1,
	}
	res.splitPhases(pj.buildNS, pj.probeNS)
	return res, stats, nil
}

// packRelation materializes a relation's (key, payload) pairs as packed
// uint64 tuples for the chunked joiner.
func packRelation(rel *workload.Relation) []uint64 {
	out := make([]uint64, rel.NumTuples)
	for i := 0; i < rel.NumTuples; i++ {
		out[i] = uint64(rel.Key(i)) | uint64(rel.Payload(i))<<32
	}
	return out
}
