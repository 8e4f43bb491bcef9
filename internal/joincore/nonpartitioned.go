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

// probeBatch is how many probe tuples the non-partitioned join looks up
// together: their bucket heads are loaded first, so those cache misses
// overlap instead of each waiting behind the previous tuple's chain walk.
const probeBatch = 16

// NonPartitioned is the no-partitioning hash join baseline (the alternative
// the paper's related work contrasts with partitioned joins): one global
// bucket-chaining hash table over R, built and probed in parallel. It avoids
// the partitioning passes but takes every probe as a cache and TLB miss on
// large relations — two dependent ones, bucket head then entry, the entry
// holding the build tuple itself.
func NonPartitioned(r, s *workload.Relation, threads int) (Result, error) {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	rr, sr := relationRun(r), relationRun(s)
	bt := buildTable{entries: make([]entry, r.NumTuples)} // exactly, not reset's power of two
	bt.reset(r.NumTuples)
	head, mask, entries := bt.head, bt.mask, bt.entries[:r.NumTuples]

	start := time.Now()
	// Parallel build: lock-free chain pushes with CAS on the bucket heads.
	inChunks(r.NumTuples, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &entries[i]
			e.tuple = rr.words[i*rr.stride]
			b := hashutil.Murmur32Finalizer(uint32(e.tuple)) & mask
			for {
				e.next = atomic.LoadInt32(&head[b])
				if atomic.CompareAndSwapInt32(&head[b], e.next, int32(i)+1) {
					break
				}
			}
		}
	})
	buildDone := time.Now()

	var matches int64
	var checksum uint64
	inChunks(s.NumTuples, threads, func(lo, hi int) {
		var localM int64
		var localC uint64
		var tuples [probeBatch]uint64
		var heads [probeBatch]int32
		for ; lo < hi; lo += probeBatch {
			n := min(probeBatch, hi-lo)
			for j := 0; j < n; j++ {
				t := sr.words[(lo+j)*sr.stride]
				tuples[j], heads[j] = t, head[hashutil.Murmur32Finalizer(uint32(t))&mask]
			}
			for j := 0; j < n; j++ {
				t := tuples[j]
				for at := heads[j]; at != 0; {
					e := &entries[at-1]
					at = e.next
					if uint32(e.tuple) == uint32(t) {
						localM++
						localC += e.tuple>>32 + t>>32
					}
				}
			}
		}
		atomic.AddInt64(&matches, localM)
		atomic.AddUint64(&checksum, localC)
	})
	elapsed := time.Since(start)
	return Result{
		Matches:  matches,
		Checksum: checksum,
		Elapsed:  elapsed,
		Build:    buildDone.Sub(start),
		Probe:    elapsed - buildDone.Sub(start),
		Threads:  threads,
	}, nil
}

// inChunks splits [0, n) into one contiguous chunk per thread, runs fn on
// each in its own goroutine and waits for all of them.
func inChunks(n, threads int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// relationRun views a relation as a run: a row-layout relation's records as
// they are, a column-layout one packed.
func relationRun(rel *workload.Relation) run {
	if rel.Layout == workload.RowLayout {
		return run{words: rel.Data[:rel.NumTuples*rel.Stride()], stride: rel.Stride()}
	}
	packed := make([]uint64, rel.NumTuples)
	for i := range packed {
		packed[i] = uint64(rel.Keys[i]) | uint64(rel.Payloads[i])<<32
	}
	return run{words: packed, stride: 1}
}

// NonPartitionedBudgeted is the global-table baseline under a memory
// budget. The smaller side builds (role reversal at plan time); if even
// that side exceeds the budget, the join degrades to budget-sized build
// chunks, each probed with the full other side — there are no partitions
// to spill, so chunking is the only graceful degradation available to this
// baseline. Matches and Checksum equal NonPartitioned's for any budget.
func NonPartitionedBudgeted(r, s *workload.Relation, threads int, budget membudget.Budget) (Result, BudgetStats, error) {
	build, probe, reversed := r, s, false
	if s.NumTuples < r.NumTuples {
		build, probe, reversed = s, r, true
	}
	nBuild, nProbe := int64(build.NumTuples), int64(probe.NumTuples)
	cfg := BudgetConfig{Budget: budget, Threads: threads}.withDefaults()
	d := Decision{Action: ActionInMemory, BuildTuples: nBuild, ProbeTuples: nProbe, Reversed: reversed}
	var stats BudgetStats
	var res Result
	if !budget.Limited() || nBuild*BuildTupleBytes <= budget.Cap() {
		var err error
		if res, err = NonPartitioned(build, probe, threads); err != nil {
			return Result{}, BudgetStats{}, err
		}
		stats.Decisions = []Decision{d}
	} else {
		// Chunked build: stage the packed sides through the spill device, then
		// run the broadcast joiner single-threaded (one global "partition").
		bs, ps := relationRun(build).appendTuples(nil), relationRun(probe).appendTuples(nil)
		start := time.Now()
		pj := partitionJoiner{cfg: &cfg}
		chunks := pj.broadcast(bs, ps, !reversed)
		res = Result{
			Matches:  pj.matches,
			Checksum: pj.checksum,
			Elapsed:  time.Since(start),
			Threads:  1,
		}
		res.splitPhases(pj.buildNS, pj.probeNS)
		d.SpilledBytes = 8 * (nBuild + nProbe)
		spilled, broadcast := d, d
		spilled.Action = ActionSpill
		broadcast.Action, broadcast.Depth, broadcast.Chunks = ActionBroadcast, 1, chunks
		stats.Decisions = []Decision{spilled, broadcast}
	}
	tally(&stats, cfg)
	return res, stats, nil
}
