package partserver

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"fpgapart/internal/faults"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/joincore"
	"fpgapart/internal/model"
	"fpgapart/internal/reqtrace"
	"fpgapart/partition"
	"fpgapart/platform"
)

// jobState is the scheduler's view of one submitted job as it moves
// through backlog → admission queue → execution → terminal status.
type jobState struct {
	id int
	// spec is the submitted job, immutable after Submit.
	spec Job
	key  configKey
	// cancelAtUS is the virtual time Cancel set, noEvent until then.
	cancelAtUS int64

	status    Status
	placement Placement
	instance  int
	attempts  int
	degraded  bool
	// forceCPU pins the job to the CPU pool after FPGA retries are
	// exhausted, a crash took its instance, or a PAD overflow aborted it.
	forceCPU bool

	dispatchUS int64 // -1 until first dispatch
	doneUS     int64
	execUS     int64

	out    execOut
	errMsg string
}

// batch is one dispatch to one resource: a run of same-configuration jobs
// for an FPGA instance, or a single job for a CPU worker. Each resource owns
// one, which every dispatch to it resets (reset); its slices keep their
// capacity, and complete is the last to read it.
type batch struct {
	jobs     []*jobState
	durs     []int64 // per-job charge of this attempt
	spills   []int64 // spill round-trip portion of each charge
	reconfig bool
	aborted  bool // scheduler-decided transient fault or crash
	crash    bool
	startUS  int64
	doneUS   int64
}

// resource is one execution slot: a simulated FPGA partitioner instance or a
// CPU partitioner worker, its scheduling state and the partitioners it runs
// jobs through.
type resource struct {
	kind     Placement       // PlacedFPGA or PlacedCPU
	writer   platform.Socket // last writer of the partitions its joins read
	idx      int             // index within its pool
	comp     string          // simtrace timeline name: "fpga0", "cpu1", …
	inflight *batch          // &batch while it runs, nil when idle
	loaded   configKey       // FPGA: currently configured circuit (zero, which no job has: none yet)
	dead     bool
	started  int // FPGA: jobs started, drives the crash threshold
	busyUS   int64

	// crash configuration (FPGA only): fail-stop while running job number
	// crashAt+1; -1 = never. straggle stretches charged durations (≥ 1).
	crashAt  int
	straggle float64

	// part is the slot's one partitioner and partKey the configuration it
	// holds, which is not loaded's when a job's outcome came from the memo.
	// Loading another configuration is virtual time the scheduler charges
	// as reconfigUS, not host work.
	part     partition.Partitioner
	partKey  configKey
	platform *platform.Platform // the Scheduler's, shared by its FPGA partitioners
	memo     *Memo              // Config.Memo
	// batch is the slot's one batch, counts the chunk its jobs' partition
	// counts are carved from, and joiner the build+probe its join jobs run
	// on, whose tables and decision log the next join reuses.
	batch  batch
	counts []int64
	joiner joincore.Joiner
}

// Scheduler is the steppable virtual-time scheduler of one deployment. A
// caller constructs it, Submits jobs (each held until its virtual arrival),
// and alternates NextEventUS and Step until the system has drained; Run is
// that loop over a whole trace, and a routing tier that fronts several
// deployments interleaves their steps on one global clock. Everything — each
// decision and each job's execution — happens inside a call, on the caller's
// goroutine: the scheduler starts none, so a fixed call sequence yields
// byte-identical results, and a scheduler no longer needed is simply dropped.
type Scheduler struct {
	cfg Config
	// platform is the machine every FPGA instance is: the paper's Xeon+FPGA.
	platform *platform.Platform
	inj      *faults.Injector
	jobs     []*jobState
	// states is the chunk Submit carves jobStates from.
	states []jobState

	// future: not yet arrived (sorted by arrival, id). waiting: arrived but
	// the admission queue was full. admit: the bounded admission queue.
	future  []*jobState
	waiting []*jobState
	admit   []*jobState

	res []*resource // the cfg.FPGAs instances first, then the CPU workers

	// finished lists the jobs that reached a terminal status during the
	// current Step, in event order; Step hands it to the caller.
	finished []int
	// next caches peek's answer until a Submit, Cancel or Step changes it
	// (peeked false), so asking for the next event and then taking it scans
	// the queues once.
	next   int64
	peeked bool

	now      int64
	makespan int64
	reconfs  int64
	batches  int64

	// flight and attempts (by job id) are the causal capture's record of
	// what jobState does not hold; both stay nil when Config.ReqTrace is.
	flight   *reqtrace.Flight
	attempts [][]reqtrace.Attempt
}

// UnknownTotal is the totalJobs argument of a caller that cannot say up
// front how many jobs it will submit.
const UnknownTotal = -1

// NewScheduler validates cfg (defaults filled in) and returns an idle
// scheduler at virtual time 0.
//
// totalJobs is the number of jobs the caller will submit, the denominator of
// the FPGA crash thresholds: instance i fail-stops while running its
// (floor(f·share)+1)-th job, share = ceil(totalJobs/FPGAs). A caller that
// cannot declare it passes UnknownTotal, and a fault scenario with Crashes
// is then rejected: a share computed from the jobs seen so far would move
// the crash point with the submission pattern.
func NewScheduler(cfg Config, totalJobs int) (s *Scheduler, err error) {
	defer guardSimulator(&err)
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s = &Scheduler{cfg: cfg, platform: platform.XeonFPGA()}
	if cfg.ReqTrace != nil {
		s.flight = reqtrace.NewFlight(0)
	}
	if cfg.Faults != nil {
		if totalJobs < 0 && len(cfg.Faults.Crashes) > 0 {
			return nil, fmt.Errorf("partserver: FPGA crash thresholds need the job total declared up front")
		}
		inj, err := faults.New(*cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.inj = inj
	}
	share := 0
	if cfg.FPGAs > 0 && totalJobs > 0 {
		share = (totalJobs + cfg.FPGAs - 1) / cfg.FPGAs
	}
	for i := 0; i < cfg.FPGAs+cfg.Workers; i++ {
		r := &resource{
			kind:     PlacedCPU,
			idx:      i - cfg.FPGAs,
			crashAt:  -1,
			straggle: 1,
			platform: s.platform,
			memo:     cfg.Memo,
		}
		if i < cfg.FPGAs {
			r.kind, r.idx, r.writer = PlacedFPGA, i, platform.FPGASocket
			if s.inj != nil {
				if at, ok := s.inj.CrashPoint(i, int64(share)); ok {
					r.crashAt = int(at)
				}
				r.straggle = s.inj.StraggleFactor(i)
			}
		}
		r.comp = fmt.Sprintf("%v%d", r.kind, r.idx)
		s.res = append(s.res, r)
	}
	s.count("sched.jobs_submitted", 0)
	return s, nil
}

// Submit registers one job and returns its id (ids count submissions from
// 0). The job is held until its ArrivalUS, which may not lie before the
// scheduler's clock; same-instant arrivals queue in submission order.
func (s *Scheduler) Submit(job Job) (id int, err error) {
	defer guardSimulator(&err)
	id = len(s.jobs)
	if err := validateJob(&job, id); err != nil {
		return 0, err
	}
	if job.ArrivalUS < s.now {
		return 0, fmt.Errorf("partserver: job %d arrives at %dus, before the scheduler clock %dus", id, job.ArrivalUS, s.now)
	}
	j := &carve(&s.states, 1, min(max(id, minStates), maxStates))[0]
	*j = jobState{id: id, spec: job, key: keyOf(&job), cancelAtUS: noEvent, instance: -1, dispatchUS: -1}
	s.jobs = append(s.jobs, j)
	at := sort.Search(len(s.future), func(i int) bool { return s.future[i].spec.ArrivalUS > job.ArrivalUS })
	s.future = slices.Insert(s.future, at, j)
	s.peeked = false
	s.count("sched.jobs_submitted", 1)
	if s.flight != nil {
		s.attempts = append(s.attempts, nil)
	}
	return id, nil
}

// Cancel pulls job id's cancellation forward to virtual time atUS: if the
// job is still queued then it ends StatusCancelled through the ordinary
// deadline path (cancellation beats dispatch at the same instant); a job
// already executing runs to completion — the circuit cannot stop
// mid-relation. A time before the scheduler's clock means now — the clock
// never runs backwards, as for Submit — and an id never submitted is ignored.
func (s *Scheduler) Cancel(id int, atUS int64) {
	if id < 0 || id >= len(s.jobs) {
		return
	}
	atUS = max(atUS, s.now)
	if j := s.jobs[id]; atUS < j.cancelAtUS {
		j.cancelAtUS = atUS
		s.peeked = false
	}
}

// count adds to a counter; a nil session is free.
func (s *Scheduler) count(name string, d int64) {
	if s.cfg.Trace != nil {
		s.cfg.Trace.Metrics.Counter(name).Add(d)
	}
}

// event records a flight event; a nil ring (capture off) is free.
func (s *Scheduler) event(us int64, comp, kind string, job int, arg int64) {
	s.flight.Record(reqtrace.FlightEvent{US: us, Comp: comp, Kind: kind, Job: job, Arg: arg})
}

// observeQueue records the current queue depth (bounded queue + backlog).
func (s *Scheduler) observeQueue() {
	if s.cfg.Trace == nil {
		return
	}
	depth := int64(len(s.admit) + len(s.waiting))
	s.cfg.Trace.Metrics.Gauge("sched.queue_depth").Observe(depth)
	s.cfg.Trace.Tracer.Sample("sched", "queue_depth", s.now, depth)
}

// admitWaiting refills the bounded admission queue from the arrived
// backlog, in arrival order.
func (s *Scheduler) admitWaiting() {
	if k := min(len(s.waiting), s.cfg.QueueDepth-len(s.admit)); k > 0 {
		moveFront(&s.admit, &s.waiting, k)
		s.observeQueue()
	}
}

// moveFront moves the first k jobs of *from to the back of *to, in order,
// without copying what stays in *from: a queue that empties starts again at
// the front of its array, so a queue that keeps running empty, as a serving
// shard's do, allocates nothing however many jobs pass through it, and one
// that holds a whole trace pops in constant time.
//
//fpgavet:hotpath
func moveFront(to, from *[]*jobState, k int) {
	*to = append(*to, (*from)[:k]...)
	if k == len(*from) {
		*from = (*from)[:0]
	} else {
		*from = (*from)[k:]
	}
}

// carve returns n zeroed elements from the free tail of *chunk, which is
// first replaced by a new chunk of max(n, size) elements when the tail is too
// short: many small objects of a scheduler's jobs are a few allocations.
func carve[T any](chunk *[]T, n, size int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, size))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// Chunk sizes, in elements: Submit's grow with the jobs submitted so far
// from minStates up to maxStates; a slot's counts chunk is countsChunk
// (8 KiB).
const (
	minStates   = 8
	maxStates   = 256
	countsChunk = 1024
)

// dispatchLoop places queued jobs on free resources until no placement is
// possible, scanning the admission queue in order (a job that cannot be
// placed does not block the jobs behind it).
func (s *Scheduler) dispatchLoop() {
	for qi := 0; qi < len(s.admit); qi++ {
		if r := s.place(s.admit[qi]); r != nil {
			s.dispatch(s.admit[qi], qi, r)
			s.admitWaiting()
			qi = -1 // the dispatch changed the queue: scan it again from the front
		}
	}
}

// place picks the free resource with the earliest predicted completion for
// job j, nil when none is free (or permitted). Ties break on a seeded hash
// so equally good resources are chosen reproducibly.
func (s *Scheduler) place(j *jobState) *resource {
	var best *resource
	var bestDone int64
	var bestTie uint64
	for ri, r := range s.res {
		if r.inflight != nil || r.dead {
			continue
		}
		if j.forceCPU && r.kind == PlacedFPGA {
			continue
		}
		done := s.now + s.predict(j, r)
		tie := hashutil.SplitMix64(s.cfg.Seed ^ hashutil.SplitMix64(uint64(j.id)<<20|uint64(ri)))
		if best == nil || done < bestDone || (done == bestDone && tie < bestTie) {
			best, bestDone, bestTie = r, done, tie
		}
	}
	return best
}

// predict estimates job j's virtual duration on resource r: the analytical
// cost model (Section 4.6) for the FPGA side, the calibrated constant rate
// for the CPU side. Predictions drive placement only; actual charges come
// from simulated cycles (FPGA) or the same constant rates (CPU).
func (s *Scheduler) predict(j *jobState, r *resource) int64 {
	n, probe := j.tuples()
	var us int64
	if r.kind == PlacedFPGA {
		mode := model.ModeOf(j.spec.Format, j.spec.Layout)
		rate := model.ForMode(mode, s.platform, max(n, 1)).TotalRate()
		us = ceilDiv(n*1e6, int64(rate))
		if probe > 0 {
			rate = model.ForMode(mode, s.platform, max(probe, 1)).TotalRate()
			us += ceilDiv(probe*1e6, int64(rate))
		}
		if r.loaded != j.key {
			us += reconfigUS
		}
		us = int64(float64(us) * r.straggle)
	} else {
		us = s.cpuChargeUS(n, probe)
	}
	if probe > 0 {
		us += s.joinChargeUS(n, probe, r.writer)
		// A build side over the tenant's memory budget: expect both sides
		// to spill. The charge prices the observed spill traffic instead.
		if budget := j.spec.MemoryBudgetBytes; budget > 0 && n*joincore.BuildTupleBytes > budget {
			us += spillUS(n + probe)
		}
	}
	return us
}

// tuples returns the job's build-side and probe-side tuple counts (probe 0
// for a partition job).
func (j *jobState) tuples() (n, probe int64) {
	if j.spec.Probe != nil {
		probe = int64(j.spec.Probe.NumTuples)
	}
	return int64(j.spec.Rel.NumTuples), probe
}

// cpuChargeUS is the virtual time a CPU slot takes to partition n build and
// probe probe tuples: what predict expects and what batchDuration charges.
func (s *Scheduler) cpuChargeUS(n, probe int64) int64 {
	return cpuDispatchUS + ceilDiv(n*1e6, cpuRate) + ceilDiv(probe*1e6, cpuRate)
}

// joinChargeUS is the virtual build+probe time of a join over n build and
// probe probe tuples on partitions last written by writer, predicted and
// charged alike: each side at joinRate over CPU-written partitions, through
// the platform's one rule for what FPGA-written ones cost.
func (s *Scheduler) joinChargeUS(n, probe int64, writer platform.Socket) int64 {
	build, probeT := s.platform.Coherence.JoinTime(
		time.Duration(n*1e9/joinRate), time.Duration(probe*1e9/joinRate), writer)
	return ceilDiv(int64(build+probeT), int64(time.Microsecond))
}

// spillUS is the virtual time a budgeted join's spill of tuples costs, as
// predict expects and batchDuration charges it (and reqtrace attributes it):
// each tuple is written and read back at the join rate.
func spillUS(tuples int64) int64 {
	return ceilDiv(2*tuples*1e6, joinRate)
}

// dispatch places job j (plus, on an FPGA, up to BatchMax−1 queued jobs with
// the same circuit configuration) on resource r, removes them from the
// admission queue and runs them, here and now on the host: the batch's
// completion time is known when dispatch returns. Fault and crash verdicts
// are drawn first; an aborted batch still executes, because its charge is
// abortFraction × the time it would have taken, and complete discards its
// results.
func (s *Scheduler) dispatch(j *jobState, qi int, r *resource) {
	b := &r.batch
	b.reset(j, s.now)
	s.admit = slices.Delete(s.admit, qi, qi+1)
	if r.kind == PlacedFPGA {
		if r.loaded != j.key {
			b.reconfig = true
			s.reconfs++
		}
		for qj := 0; qj < len(s.admit) && len(b.jobs) < s.cfg.BatchMax; {
			cand := s.admit[qj]
			if cand.key == j.key && !cand.forceCPU {
				b.jobs = append(b.jobs, cand)
				s.admit = slices.Delete(s.admit, qj, qj+1)
				continue
			}
			qj++
		}
		r.loaded = j.key

		// Crash verdict: the batch that carries the instance past its
		// fail-stop threshold aborts mid-run and kills the instance.
		if r.crashAt >= 0 && r.started+len(b.jobs) > r.crashAt {
			b.aborted, b.crash = true, true
		}
		r.started += len(b.jobs)

		// Transient fault verdict, drawn per dispatch attempt.
		if !b.aborted && s.inj != nil {
			fate, _ := s.inj.MessageFate(faults.MsgID{
				Src: r.idx, Msg: j.id, Attempt: j.attempts,
			})
			if fate != faults.Deliver {
				b.aborted = true
			}
		}
	}
	for _, bj := range b.jobs {
		bj.attempts++
		if bj.dispatchUS < 0 {
			bj.dispatchUS = s.now
		}
		bj.placement = r.kind
		bj.instance = r.idx
		s.event(s.now, r.comp, "dispatch", bj.id, int64(bj.attempts))
	}
	s.batches++
	r.inflight = b
	s.observeQueue()
	for _, bj := range b.jobs {
		r.runJob(bj)
	}
	b.doneUS = b.startUS + s.batchDuration(b, r)
}

// reset makes b a batch of job j alone, started at virtual time now.
//
//fpgavet:hotpath
func (b *batch) reset(j *jobState, now int64) {
	*b = batch{jobs: append(b.jobs[:0], j), durs: b.durs[:0], spills: b.spills[:0], startUS: now}
}

// noEvent is peek's answer when nothing is scheduled on the virtual clock.
const noEvent = int64(math.MaxInt64)

// peek returns the virtual time of the next event (arrival, completion, or
// queue deadline), noEvent when none is scheduled.
//
//fpgavet:hotpath
func (s *Scheduler) peek() int64 {
	if s.peeked {
		return s.next
	}
	next := noEvent
	if len(s.future) > 0 {
		next = s.future[0].spec.ArrivalUS
	}
	for _, r := range s.res {
		if r.inflight != nil && r.inflight.doneUS < next {
			next = r.inflight.doneUS
		}
	}
	for _, j := range s.admit {
		next = min(next, j.cancelAtUS)
	}
	for _, j := range s.waiting {
		next = min(next, j.cancelAtUS)
	}
	s.next, s.peeked = next, true
	return next
}

// NextEventUS returns the virtual time of the scheduler's next event; ok is
// false once the system has drained. Queued jobs nothing can ever run (e.g.
// CPU-pinned jobs with no CPU workers) are an event at the current time: the
// Step that fails them.
func (s *Scheduler) NextEventUS() (us int64, ok bool) {
	next := s.peek()
	if next == noEvent {
		return s.now, len(s.admit)+len(s.waiting) > 0
	}
	return next, true
}

// Step advances virtual time to the next event, processes everything due at
// that instant — completions first (they free resources), in resource order;
// then arrivals; then queue deadlines, so cancellation beats dispatch — and
// places queued jobs on the free resources. It returns the ids of the jobs
// that reached a terminal status, in event order; the slice is reused by the
// next Step.
func (s *Scheduler) Step() []int {
	s.finished = s.finished[:0]
	next := s.peek()
	s.peeked = false
	if next == noEvent {
		s.failUnschedulable(&s.admit)
		s.failUnschedulable(&s.waiting)
		return s.finished
	}
	s.now = next

	for _, r := range s.res {
		if r.inflight != nil && r.inflight.doneUS == s.now {
			s.complete(r)
		}
	}
	arrived := 0
	for arrived < len(s.future) && s.future[arrived].spec.ArrivalUS <= s.now {
		arrived++
	}
	if arrived > 0 {
		moveFront(&s.waiting, &s.future, arrived)
		s.observeQueue()
	}
	s.expire(&s.admit)
	s.expire(&s.waiting)

	s.admitWaiting()
	s.dispatchLoop()
	return s.finished
}

// terminalNames maps a terminal status to its flight-event kind and its
// simtrace counter.
var terminalNames = [...]struct{ event, counter string }{
	StatusDone:      {"done", "sched.jobs_done"},
	StatusCancelled: {"cancel", "sched.jobs_cancelled"},
	StatusFailed:    {"failed", "sched.jobs_failed"},
}

// finish stamps job j's terminal status at the current virtual time,
// records it on component comp, and queues the id for Step's caller.
func (s *Scheduler) finish(j *jobState, status Status, comp string) {
	j.status = status
	j.doneUS = s.now
	names := terminalNames[status]
	s.event(s.now, comp, names.event, j.id, int64(j.attempts))
	s.count(names.counter, 1)
	s.finished = append(s.finished, j.id)
}

func (s *Scheduler) failUnschedulable(q *[]*jobState) {
	for _, j := range *q {
		j.errMsg = "no resource can run this job"
		s.finish(j, StatusFailed, "sched")
	}
	*q = (*q)[:0]
}

func (s *Scheduler) expire(q *[]*jobState) {
	kept := (*q)[:0]
	changed := false
	for _, j := range *q {
		if j.cancelAtUS > s.now {
			kept = append(kept, j)
			continue
		}
		changed = true
		s.finish(j, StatusCancelled, "sched")
		j.placement = PlacedNone
		j.instance = -1
	}
	*q = kept
	if changed {
		s.observeQueue()
	}
}

// batchDuration converts an executed batch into charged virtual time on
// resource r and stamps per-job execution charges (b.durs, b.spills, which
// reset left empty).
//
//fpgavet:hotpath
func (s *Scheduler) batchDuration(b *batch, r *resource) int64 {
	var total int64
	if b.reconfig {
		total += reconfigUS
	}
	for _, j := range b.jobs {
		var us, spill int64
		n, probe := j.tuples()
		if r.kind == PlacedFPGA {
			us = ceilDiv(j.out.cycles*1e6, int64(s.platform.FPGAClockHz))
			us = int64(float64(us) * r.straggle)
		} else {
			us = s.cpuChargeUS(n, probe)
		}
		if j.spec.Probe != nil && j.out.ok {
			us += s.joinChargeUS(n, probe, r.writer)
			// Each spilled tuple is 8 packed bytes.
			spill = spillUS(j.out.spilledBytes / 8)
			us += spill
		}
		if b.aborted {
			// The attempt stops part-way: charge the abort fraction. The
			// whole rescaled charge is attributed to execution.
			us = int64(float64(us) * abortFraction)
			spill = 0
		}
		us = max(us, 1)
		b.durs = append(b.durs, us)
		b.spills = append(b.spills, spill)
		j.execUS += us
		total += us
	}
	return max(total, 1)
}

// complete finalizes r's batch at the current virtual time, its completion:
// spans and counters are emitted here, in event order.
func (s *Scheduler) complete(r *resource) {
	b := r.inflight
	r.inflight = nil
	r.busyUS += b.doneUS - b.startUS

	if s.flight != nil {
		// Attempt records: the five duration fields tile the batch interval
		// per job (reconfig + earlier jobs + own charge + later jobs =
		// doneUS − startUS for every member), the identity the causal
		// tracer's conservation law rests on.
		reconfig := int64(0)
		if b.reconfig {
			reconfig = reconfigUS
		}
		total := b.doneUS - b.startUS
		var pre int64
		for i, j := range b.jobs {
			spill := b.spills[i]
			s.attempts[j.id] = append(s.attempts[j.id], reqtrace.Attempt{
				Resource:   r.comp,
				StartUS:    b.startUS,
				ReconfigUS: reconfig,
				PreWaitUS:  pre,
				ExecUS:     b.durs[i] - spill,
				SpillUS:    spill,
				DrainUS:    total - reconfig - pre - b.durs[i],
				Aborted:    b.aborted,
			})
			pre += b.durs[i]
		}
	}

	if s.cfg.Trace != nil {
		cursor := b.startUS
		if b.reconfig {
			s.cfg.Trace.Tracer.Span(r.comp, "reconfig", cursor, reconfigUS)
			cursor += reconfigUS
		}
		for i, j := range b.jobs {
			s.cfg.Trace.Tracer.Span(r.comp, fmt.Sprintf("job%d", j.id), cursor, b.durs[i])
			cursor += b.durs[i]
		}
	}

	if b.aborted {
		kind, counter := "fault", "sched.fpga_faults"
		if b.crash {
			r.dead = true
			kind, counter = "crash", "sched.fpga_crashes"
		}
		s.count(counter, 1)
		if s.cfg.Trace != nil {
			s.cfg.Trace.Tracer.Instant(r.comp, kind, b.doneUS)
		}
		s.event(b.doneUS, r.comp, kind, b.jobs[0].id, int64(len(b.jobs)))
		for _, j := range b.jobs {
			s.requeue(j, b.crash)
		}
		return
	}

	for _, j := range b.jobs {
		switch {
		case j.out.ok:
			s.finish(j, StatusDone, r.comp)
			s.makespan = s.now
			if r.kind == PlacedFPGA {
				s.count("sched.placed_fpga", 1)
			} else {
				s.count("sched.placed_cpu", 1)
			}
			if j.degraded {
				s.count("sched.jobs_degraded", 1)
			}
			if s.cfg.Trace != nil {
				s.cfg.Trace.Metrics.Histogram("sched.queue_wait_us").Observe(j.dispatchUS - j.spec.ArrivalUS)
				s.cfg.Trace.Metrics.Histogram("sched.exec_us").Observe(j.execUS)
			}
		case j.out.overflow || r.kind == PlacedFPGA:
			// PAD overflow (the circuit aborted this job), tuples the
			// circuit's output cannot hold, or a simulator fault on the FPGA
			// run: degrade to CPU, keeping the aborted attempt's charge
			// (Section 5.4 semantics).
			j.forceCPU = true
			j.degraded = true
			if j.out.overflow {
				s.count("sched.overflow_degrades", 1)
			} else {
				s.count("sched.sim_faults", 1)
			}
			s.event(b.doneUS, r.comp, "degrade", j.id, int64(j.attempts))
			s.requeueFront(j)
		default:
			// CPU execution failed: no further fallback.
			j.errMsg = j.out.errMsg
			s.finish(j, StatusFailed, r.comp)
			s.makespan = s.now
		}
	}
}

// requeue returns a fault- or crash-aborted job to the front of the
// admission queue; once its FPGA retries are exhausted (or its instance
// crashed with no healthy FPGA left) it is pinned to the CPU pool.
func (s *Scheduler) requeue(j *jobState, crash bool) {
	s.count("sched.retries", 1)
	if j.attempts > maxFPGARetries || (crash && !s.anyFPGAAlive()) {
		j.forceCPU = true
		j.degraded = true
	}
	s.requeueFront(j)
}

func (s *Scheduler) requeueFront(j *jobState) {
	j.out = execOut{}
	s.admit = slices.Insert(s.admit, 0, j)
	s.observeQueue()
}

func (s *Scheduler) anyFPGAAlive() bool {
	for _, r := range s.res[:s.cfg.FPGAs] {
		if !r.dead {
			return true
		}
	}
	return false
}

// Result returns job id's outcome as of now: final once the job has been
// listed by Step, a snapshot of a queued or executing job before that. An id
// never submitted gets a StatusFailed result with ID -1 and Err naming it.
func (s *Scheduler) Result(id int) JobResult {
	if id < 0 || id >= len(s.jobs) {
		return JobResult{ID: -1, Status: StatusFailed, Err: fmt.Sprintf("partserver: no job %d", id)}
	}
	j := s.jobs[id]
	jr := JobResult{
		ID:           j.id,
		Status:       j.status,
		Tag:          j.spec.Tag,
		Placement:    j.placement,
		Instance:     j.instance,
		Attempts:     j.attempts,
		Degraded:     j.degraded,
		ArrivalUS:    j.spec.ArrivalUS,
		DispatchUS:   j.dispatchUS,
		DoneUS:       j.doneUS,
		ExecUS:       j.execUS,
		Tuples:       j.out.tuples,
		Counts:       j.out.counts,
		Checksum:     j.out.checksum,
		Matches:      j.out.matches,
		SpilledBytes: j.out.spilledBytes,
		Err:          j.errMsg,
	}
	if j.status == StatusDone {
		jr.QueueWaitUS = j.dispatchUS - j.spec.ArrivalUS
	}
	return jr
}

// JobRecord returns job id's causal record: arrival, terminal status and time
// from the job's state, and its charged attempts (none when Config.ReqTrace is
// nil). Like Result, it is final once Step has listed the job; ID -1: no job.
func (s *Scheduler) JobRecord(id int) reqtrace.JobRecord {
	if id < 0 || id >= len(s.jobs) {
		return reqtrace.JobRecord{ID: -1}
	}
	j := s.jobs[id]
	rec := reqtrace.JobRecord{ID: id, ArrivalUS: j.spec.ArrivalUS, DoneUS: j.doneUS, Status: j.status.String()}
	if s.attempts != nil {
		rec.Attempts = s.attempts[id]
	}
	return rec
}

// Flight returns the scheduler's flight-recorder ring, nil when
// Config.ReqTrace is.
func (s *Scheduler) Flight() *reqtrace.Flight { return s.flight }

// fillCapture fills Config.ReqTrace at the end of Run: the flight timeline
// always, so a failed run leaves a postmortem, and on success one trace per
// job under the defaulted seed.
func (s *Scheduler) fillCapture(err error) {
	if s == nil || s.cfg.ReqTrace == nil {
		return
	}
	c := s.cfg.ReqTrace
	c.Flight, c.FlightDropped = s.flight.Events(), s.flight.Dropped()
	if err != nil {
		return
	}
	c.Traces = make([]reqtrace.RequestTrace, len(s.jobs))
	for id := range s.jobs {
		rec := s.JobRecord(id)
		c.Traces[id] = reqtrace.BuildJob(s.cfg.Seed, &rec)
	}
}

// MakespanUS returns the virtual completion time of the last job that ran to
// a result so far.
func (s *Scheduler) MakespanUS() int64 { return s.makespan }

// Report assembles the outcome of every submitted job, in id order, and
// emits the run-level counters into the simtrace session. Call it once, after
// the scheduler has drained.
func (s *Scheduler) Report() *Report {
	rep := &Report{MakespanUS: s.makespan, Results: make([]JobResult, len(s.jobs))}
	var checksum uint32
	var spilled int64
	for id := range s.jobs {
		jr := s.Result(id)
		rep.Results[id] = jr
		spilled += jr.SpilledBytes
		if jr.Status != StatusDone {
			continue
		}
		checksum += jr.Checksum
		switch jr.Placement {
		case PlacedFPGA:
			rep.PlacedFPGA++
		case PlacedCPU:
			rep.PlacedCPU++
		}
		if jr.Degraded {
			rep.Degraded++
		}
	}
	for _, r := range s.res[:s.cfg.FPGAs] {
		if r.dead {
			rep.FailedInstances = append(rep.FailedInstances, r.idx)
		}
	}
	if s.cfg.Trace != nil {
		s.count("sched.makespan_us", s.makespan)
		s.count("sched.batches", s.batches)
		s.count("sched.reconfigs", s.reconfs)
		s.count("sched.output_checksum", int64(checksum))
		if spilled > 0 {
			// Emitted only when a budgeted job actually spilled, so traces
			// of unbudgeted workloads are byte-identical to earlier runs.
			s.count("sched.mem_spilled_bytes", spilled)
		}
		var busyF, busyC int64
		for _, r := range s.res {
			if r.kind == PlacedFPGA {
				busyF += r.busyUS
			} else {
				busyC += r.busyUS
			}
		}
		s.count("sched.busy_fpga_us", busyF)
		s.count("sched.busy_cpu_us", busyC)
	}
	return rep
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("partserver: ceilDiv by %d", b))
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
