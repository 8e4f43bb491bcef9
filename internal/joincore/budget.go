package joincore

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fpgapart/internal/cpupart"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/membudget"
)

// BuildTupleBytes is the budgeted footprint of one build-side tuple: its
// entry in the build table, the 8-byte packed tuple plus its chain link
// padded to 8 bytes.
const BuildTupleBytes = 16

const (
	// MaxRecursionDepth bounds recursive repartitioning: past it a bucket
	// is broadcast-joined instead of split again.
	MaxRecursionDepth = 4
	// subFanOut is the fan-out of one recursive repartitioning pass.
	subFanOut = 16
	// heavyHitterFraction routes a bucket to the broadcast join when one
	// key holds at least this fraction of its build side.
	heavyHitterFraction = 0.5
)

// Action is one adaptive decision of the budgeted join.
type Action int

const (
	// ActionInMemory joined the bucket with an ordinary in-budget build.
	ActionInMemory Action = iota
	// ActionSpill wrote an over-budget partition to the spill store.
	ActionSpill
	// ActionRecurse repartitioned a spilled bucket with a salted hash.
	ActionRecurse
	// ActionBroadcast block-joined a bucket in budget-sized build chunks.
	ActionBroadcast
)

// String names the action for trace span labels.
func (a Action) String() string {
	switch a {
	case ActionInMemory:
		return "inmemory"
	case ActionSpill:
		return "spill"
	case ActionRecurse:
		return "recurse"
	case ActionBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decision records one adaptive choice, in the deterministic order the
// executor made it. The hashjoin layer turns these into simtrace spans.
type Decision struct {
	// Partition is the top-level partition the bucket descends from.
	Partition int
	// Depth is the recursion depth: 0 for top-level partitions.
	Depth  int
	Action Action
	// BuildTuples and ProbeTuples count valid tuples after role reversal:
	// BuildTuples is the smaller side actually built on.
	BuildTuples int64
	ProbeTuples int64
	// Reversed reports that the build side is S — a role reversal.
	Reversed bool
	// SpilledBytes is bytes written to the spill store (ActionSpill) or
	// read back from it (ActionRecurse, ActionBroadcast).
	SpilledBytes int64
	// Chunks is the number of build chunks of a broadcast join.
	Chunks int
	// HeavyHitter marks a broadcast forced by the frequency sketch rather
	// than by recursion depth or a bucket that refused to shrink.
	HeavyHitter bool
}

// BudgetStats aggregates the adaptive behaviour of one budgeted join. Under
// an unlimited budget nothing adapts: a join logs no decision and counts
// nothing.
type BudgetStats struct {
	// BudgetBytes is the configured cap; HighWaterBytes is the largest
	// reservation one decision made (tally says what each reserves).
	BudgetBytes    int64
	HighWaterBytes int64
	// InMemory counts buckets joined without spilling (all depths);
	// Reversals, buckets that built on S because it was smaller.
	InMemory, Reversals int
	// SpilledPartitions and SpilledBytes describe top-level partitions
	// written to the spill store; SpillReadBytes is the total read back by
	// recursive and broadcast passes.
	SpilledPartitions int
	SpilledBytes      int64
	SpillReadBytes    int64
	// Recursions counts salted repartitioning passes; MaxDepth is the
	// deepest recursion level reached (bounded by the executor).
	Recursions int
	MaxDepth   int
	// Broadcasts counts buckets joined by the chunked broadcast join, in
	// BroadcastChunks budget-sized build chunks.
	Broadcasts      int
	BroadcastChunks int
	// Decisions lists every adaptive choice in partition-major order.
	Decisions []Decision
}

// BudgetConfig configures BudgetedBuildProbe.
type BudgetConfig struct {
	// Budget is the byte cap each bucket's build side is fitted against.
	// With the zero (unlimited) one every partition fits: nothing spills and
	// nothing is logged or tallied (BuildProbe is that case).
	Budget membudget.Budget
	// Spill receives the bytes read back from the simulated spill device;
	// nil discards them. BudgetStats.SpillReadBytes counts them either way.
	Spill *membudget.SpillStore
	// Threads is the partition-level parallelism (≤ 0 means GOMAXPROCS).
	Threads int
	// Emit, when non-nil, receives every match of partition p with the
	// original R payload first regardless of role reversal. Calls are
	// sequential per partition; distinct partitions may emit concurrently.
	// No production caller sets it; it stays because hashjoin's
	// TestEmitOrderLock, the contract gate on match order, reads through it.
	Emit func(p int, key, rPay, sPay uint32)
}

func (c BudgetConfig) withDefaults() BudgetConfig {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c
}

// saltAt derives the repartitioning salt for one recursion depth. It is
// never zero at depth ≥ 1, so a recursive pass hashes differently from the
// top-level partitioner (whose low hash bits the bucket's keys agree on).
func saltAt(depth int) uint32 {
	s := hashutil.Murmur32Finalizer(uint32(depth) * 0x9E3779B9)
	if s == 0 {
		s = 1
	}
	return s
}

// BudgetedBuildProbe joins the partitions of R and S under a memory budget
// on a fresh Joiner (see Join), so the returned Decisions are the caller's.
func BudgetedBuildProbe(r, s Partitions, cfg BudgetConfig) (Result, BudgetStats, error) {
	return new(Joiner).Join(r, s, cfg)
}

// Joiner is the repository's one partitioned build+probe. It keeps its
// workers' build tables, repartitioning scratch and decision logs across
// calls, so a long-lived caller's second and later single-threaded joins
// allocate nothing at any budget. The zero value is ready; a Joiner runs one
// join at a time, and Join panics if entered while a call is under way.
type Joiner struct {
	busy    atomic.Bool
	cfg     BudgetConfig
	workers []partitionJoiner // one per thread of the call; capacity kept
	// spans[p] is where partition p's decisions are in its worker's log,
	// decisions all of them in partition-major order: what tally and the
	// join.mem trace read, so both are empty without a limited budget,
	// which has no cap to account against and never spills.
	spans     []logSpan
	decisions []Decision
	next      atomic.Int64
	wg        sync.WaitGroup
}

// logSpan is entries [lo, hi) of worker w's log.
type logSpan struct{ w, lo, hi int }

// Join joins the partitions of R and S under cfg's memory budget.
// Partitions whose build side fits are joined in place (role-reversing so
// the side with fewer slots builds); the rest spill and are recursively
// repartitioned with salted hashes, with heavy-hitter buckets and
// depth-capped buckets routed to a chunked broadcast join. Matches and
// Checksum are the same for any budget, limited or not, because every path
// joins the exact same multiset of tuple pairs.
//
// All adaptive decisions are functions of partition contents and the budget
// cap alone — never of cross-partition timing — so same-seed runs decide,
// count and spill identically at any thread count. The memory and
// spill-store accounting is one fold over the decision log in
// partition-major order after the parallel join, keeping the high-water
// mark interleaving-free. The returned Decisions slice belongs to the
// Joiner: its next call overwrites it.
func (j *Joiner) Join(r, s Partitions, cfg BudgetConfig) (Result, BudgetStats, error) {
	n := r.NumPartitions()
	if n != s.NumPartitions() {
		return Result{}, BudgetStats{}, fmt.Errorf("joincore: fan-out mismatch: R has %d partitions, S has %d", n, s.NumPartitions())
	}
	if !j.busy.CompareAndSwap(false, true) {
		panic("joincore: Joiner.Join entered while another call is under way")
	}
	defer j.busy.Store(false)
	j.cfg = cfg.withDefaults()
	threads := j.cfg.Threads
	j.spans = j.spans[:0]
	if j.cfg.Budget.Limited() {
		j.spans = slices.Grow(j.spans, n)[:n] // every partition writes its span
	}
	if cap(j.workers) < threads {
		j.workers = make([]partitionJoiner, threads)
	}
	j.workers = j.workers[:threads]
	j.next.Store(0)
	start := time.Now()
	for w := range j.workers {
		j.workers[w].begin(&j.cfg, start)
	}
	j.wg.Add(threads)
	if threads == 1 {
		// On the caller's goroutine: nothing to start or wait for, and a
		// panic in here (a caller's Emit, say) unwinds into the caller's
		// guard instead of ending the process.
		j.work(0, r, s)
	} else {
		for w := 0; w < threads; w++ {
			go j.work(w, r, s)
		}
	}
	j.wg.Wait()
	res := Result{Elapsed: time.Since(start), Threads: threads}
	var buildNS, probeNS int64
	logged := 0
	for w := range j.workers {
		pj := &j.workers[w]
		if pj.err != nil {
			return Result{}, BudgetStats{}, pj.err
		}
		res.Matches, res.Checksum = res.Matches+pj.matches, res.Checksum+pj.checksum
		buildNS, probeNS, logged = buildNS+pj.buildNS, probeNS+pj.probeNS, logged+len(pj.log)
	}
	res.splitPhases(buildNS, probeNS)
	j.decisions = slices.Grow(j.decisions[:0], logged) // exact: one allocation on a fresh Joiner
	for _, at := range j.spans {
		j.decisions = append(j.decisions, j.workers[at.w].log[at.lo:at.hi]...)
	}
	stats := BudgetStats{Decisions: j.decisions}
	tally(&stats, j.cfg)
	return res, stats, nil
}

// splitPhases divides Elapsed into Build and Probe in proportion to the
// summed per-worker phase times.
func (res *Result) splitPhases(buildNS, probeNS int64) {
	if total := buildNS + probeNS; total > 0 {
		res.Build = time.Duration(float64(res.Elapsed) * float64(buildNS) / float64(total))
		res.Probe = res.Elapsed - res.Build
	}
}

// work is worker w: it joins partitions pulled from the shared counter
// until none are left or one fails.
func (j *Joiner) work(w int, r, s Partitions) {
	defer j.wg.Done()
	pj := &j.workers[w]
	pj.lap() // what precedes the worker's start is no phase of its
	for n := r.NumPartitions(); pj.err == nil; {
		p := int(j.next.Add(1)) - 1
		if p >= n {
			return
		}
		if len(j.spans) == 0 { // an unlimited budget logs nothing
			_, pj.err = pj.run(r, s, p)
			continue
		}
		lo := len(pj.log)
		pj.log = append(pj.log, Decision{}) // p's depth-0 decision goes first
		top, err := pj.run(r, s, p)
		pj.log[lo], pj.err, j.spans[p] = top, err, logSpan{w, lo, len(pj.log)}
	}
}

// tally folds the decision log, in its deterministic order, into the
// aggregate counters, SpillReadBytes (what recursive and broadcast passes
// read back) included, and accounts that into cfg.Spill. Every reservation a
// decision makes is released before the next one, so HighWaterBytes is the
// largest single reservation. The decisions were made against the cap alone,
// so the fold is what a one-partition-at-a-time executor would have reserved.
//
//fpgavet:hotpath
func tally(stats *BudgetStats, cfg BudgetConfig) {
	// One write-combining line per side stages spill writes.
	const spillBufBytes = 2 * cpupart.BufferTuples * 8
	// A recursive pass scatters through one such line per side and bucket.
	const scatterBytes = subFanOut * spillBufBytes
	chunkCap := chunkTuples(cfg.Budget)
	for _, d := range stats.Decisions {
		stats.MaxDepth = max(stats.MaxDepth, d.Depth)
		if d.Reversed {
			stats.Reversals++
		}
		var reserved int64
		switch d.Action {
		case ActionInMemory:
			stats.InMemory++
			reserved = d.BuildTuples * BuildTupleBytes
		case ActionSpill:
			stats.SpilledPartitions++
			stats.SpilledBytes += d.SpilledBytes
			reserved = spillBufBytes
		case ActionRecurse:
			stats.Recursions++
			stats.SpillReadBytes += d.SpilledBytes
			reserved = scatterBytes
		case ActionBroadcast:
			stats.Broadcasts++
			stats.BroadcastChunks += d.Chunks
			stats.SpillReadBytes += d.SpilledBytes
			// The first chunk is the largest. It is the allocation the
			// join cannot avoid, so it counts even when one tuple
			// overshoots a tiny cap.
			reserved = min(d.BuildTuples, chunkCap) * BuildTupleBytes
		}
		stats.HighWaterBytes = max(stats.HighWaterBytes, reserved)
	}
	stats.BudgetBytes = cfg.Budget.Cap()
	cfg.Spill.Read(stats.SpillReadBytes)
}

// chunkTuples is the build-chunk size of the broadcast join: as many tuples
// as fit the budget, and at least one.
func chunkTuples(b membudget.Budget) int64 {
	if !b.Limited() {
		return 1 << 30
	}
	return max(b.Cap()/BuildTupleBytes, 1)
}

// partitionJoiner joins the partition pairs of one worker, one at a time,
// accumulating the worker's totals. It runs entirely on one goroutine, and
// a Joiner keeps it, its tables and its log for its next call.
type partitionJoiner struct {
	cfg     *BudgetConfig
	part    int // the top-level partition being joined
	scratch buildTable
	// repart[d-1] is the working memory and recycled output of the
	// repartitioning passes at depth d: the sub-buckets of every level above
	// are live while one level repartitions.
	repart [MaxRecursionDepth]cpupart.Scratch
	// spilled holds the packed copies of a spilled partition's R and S
	// sides, unless a side is stored packed already (collect).
	spilled [2][]uint64
	// log holds, under a limited budget, the decisions of the partitions
	// the worker joined, in its order, each partition's depth-0 one first.
	log      []Decision
	matches  int64
	checksum uint64
	// buildNS and probeNS sum the worker's phase times as laps off one clock:
	// a read ends a phase and starts the next — two reads a partition, of the
	// monotonic clock alone (time.Since, unlike time.Now, reads no wall
	// clock) — and what little runs between two partitions counts as build.
	buildNS int64
	probeNS int64
	epoch   time.Time     // the join's start, which laps are measured from
	lapAt   time.Duration // when the previous lap ended
	err     error         // what ended the worker's join early
}

// begin readies the worker for a join started at epoch: its totals, error
// and log start empty, its tables keep their memory.
func (pj *partitionJoiner) begin(cfg *BudgetConfig, epoch time.Time) {
	*pj = partitionJoiner{cfg: cfg, epoch: epoch, scratch: pj.scratch, repart: pj.repart, spilled: pj.spilled, log: pj.log[:0]}
}

// lap returns the nanoseconds since the previous lap ended and starts the
// next one.
func (pj *partitionJoiner) lap() int64 {
	now := time.Since(pj.epoch)
	d := now - pj.lapAt
	pj.lapAt = now
	return int64(d)
}

func (pj *partitionJoiner) fits(buildTuples int64) bool {
	b := pj.cfg.Budget
	return !b.Limited() || buildTuples*BuildTupleBytes <= b.Cap()
}

// run joins partition p and returns its depth-0 decision. The side with
// fewer slots builds: for CPU-written partitions that is the side with fewer
// tuples. Both sides are counted before anything is built, so a partition
// that does not fit costs no hash table.
func (pj *partitionJoiner) run(r, s Partitions, p int) (top Decision, err error) {
	pj.part = p
	rSlots, nR := size(r, p)
	sSlots, nS := size(s, p)
	build, probe, nBuild, nProbe, reversed := r, s, nR, nS, false
	if sSlots < rSlots {
		build, probe, nBuild, nProbe, reversed = s, r, nS, nR, true
	}
	top = Decision{Partition: p, Action: ActionInMemory, BuildTuples: nBuild, ProbeTuples: nProbe, Reversed: reversed && nBuild > 0}
	if nBuild == 0 {
		return top, nil
	}
	if !pj.fits(nBuild) {
		// Over budget: spill both sides as packed tuple runs and go adaptive.
		top.Action = ActionSpill
		top.SpilledBytes = 8 * (nR + nS)
		return top, pj.joinSpilled(collect(r, p, &pj.spilled[0]), collect(s, p, &pj.spilled[1]), 1, false)
	}
	pj.scratch.reset(int(nBuild))
	for i, k := 0, build.NumRuns(p); i < k; i++ {
		pj.scratch.add(runAt(build, p, i))
	}
	pj.buildNS += pj.lap()
	for i, k := 0, probe.NumRuns(p); i < k; i++ {
		pj.probe(runAt(probe, p, i), !reversed)
	}
	pj.probeNS += pj.lap()
	return top, nil
}

// joinSpilled joins one spilled bucket: in memory if the (possibly
// reversed) build side now fits, by broadcast when recursion is hopeless —
// a heavy hitter, the depth cap, or stuck: the salt did not split it — and by
// salted recursive repartitioning otherwise.
func (pj *partitionJoiner) joinSpilled(rs, ss []uint64, depth int, stuck bool) error {
	if len(rs) == 0 || len(ss) == 0 {
		return nil
	}
	build, probe, rIsBuild := rs, ss, true
	if len(ss) < len(rs) {
		build, probe, rIsBuild = ss, rs, false
	}
	nBuild, nProbe := int64(len(build)), int64(len(probe))
	d := Decision{
		Partition: pj.part, Depth: depth,
		BuildTuples: nBuild, ProbeTuples: nProbe, Reversed: !rIsBuild,
	}
	if pj.fits(nBuild) {
		d.Action = ActionInMemory
		pj.log = append(pj.log, d)
		pj.joinSlices(build, probe, rIsBuild)
		return nil
	}

	var hhCount int64
	if !stuck { // a stuck bucket is its parent over again, which was not hot
		_, hhCount = heavyHitter(build)
	}
	hot := float64(hhCount) >= heavyHitterFraction*float64(nBuild) ||
		(pj.cfg.Budget.Limited() && hhCount*BuildTupleBytes > pj.cfg.Budget.Cap())
	if hot || stuck || depth > MaxRecursionDepth {
		d.Action = ActionBroadcast
		d.HeavyHitter = hot
		d.SpilledBytes = 8 * (int64(len(rs)) + int64(len(ss)))
		d.Chunks = pj.broadcast(build, probe, rIsBuild)
		pj.log = append(pj.log, d)
		return nil
	}

	d.Action = ActionRecurse
	d.SpilledBytes = 8 * (int64(len(rs)) + int64(len(ss)))
	pj.log = append(pj.log, d)
	sub := cpupart.Config{
		NumPartitions: subFanOut,
		Hash:          true,
		Threads:       1,
		Salt:          saltAt(depth),
	}
	repart := &pj.repart[depth-1]
	pr, err := repart.PartitionTuples(rs, sub)
	if err != nil {
		return fmt.Errorf("joincore: repartitioning spilled bucket: %w", err)
	}
	ps, err := repart.PartitionTuples(ss, sub)
	if err != nil {
		return fmt.Errorf("joincore: repartitioning spilled bucket: %w", err)
	}
	for q := 0; q < sub.NumPartitions; q++ {
		subR, subS := pr.Partition(q), ps.Partition(q)
		if len(subR) == 0 || len(subS) == 0 {
			continue
		}
		// A bucket the salt failed to split (e.g. a single key) would recurse
		// without end: it is broadcast one level down instead.
		stuck := len(subR) == len(rs) && len(subS) == len(ss)
		if err := pj.joinSpilled(subR, subS, depth+1, stuck); err != nil {
			return err
		}
	}
	// The sub-buckets are joined: the next pass writes into their buffers.
	repart.Recycle(&pr)
	repart.Recycle(&ps)
	return nil
}

// joinSlices is the in-memory join of two packed tuple runs.
func (pj *partitionJoiner) joinSlices(build, probe []uint64, rIsBuild bool) {
	pj.scratch.reset(len(build))
	pj.scratch.add(run{words: build, stride: 1})
	pj.buildNS += pj.lap()
	pj.probe(run{words: probe, stride: 1}, rIsBuild)
	pj.probeNS += pj.lap()
}

// broadcast block-joins a bucket whose build side cannot be split: build
// chunks sized to the budget, each probed with the full probe side. Exact
// for any input, at the cost of len(probe) passes per chunk.
func (pj *partitionJoiner) broadcast(build, probe []uint64, rIsBuild bool) (chunks int) {
	c := chunkTuples(pj.cfg.Budget)
	for lo := int64(0); lo < int64(len(build)); lo += c {
		hi := lo + c
		if hi > int64(len(build)) {
			hi = int64(len(build))
		}
		pj.joinSlices(build[lo:hi], probe, rIsBuild)
		chunks++
	}
	return chunks
}

// probe probes the build table with a run of the probe side, in slot order
// and every chain from its head, emitting matches. rIsBuild tells which
// payload belongs to R. It is the one probe loop of the partitioned joins.
//
//fpgavet:hotpath
func (pj *partitionJoiner) probe(rn run, rIsBuild bool) {
	bt, entries, emit, part := &pj.scratch, pj.scratch.entries, pj.cfg.Emit, pj.part
	matches, checksum := pj.matches, pj.checksum
	for i := 0; i < len(rn.words); i += rn.stride {
		t := rn.words[i]
		key := uint32(t)
		if rn.hasDummy && key == rn.dummy {
			continue
		}
		for at := bt.head[bt.bucketOf(key)]; at != 0; {
			e := &entries[at-1]
			at = e.next
			if uint32(e.tuple) != key {
				continue
			}
			rPay, sPay := uint32(e.tuple>>32), uint32(t>>32)
			if !rIsBuild {
				rPay, sPay = sPay, rPay
			}
			matches++
			checksum += uint64(rPay) + uint64(sPay)
			if emit != nil {
				emit(part, key, rPay, sPay)
			}
		}
	}
	pj.matches, pj.checksum = matches, checksum
}
