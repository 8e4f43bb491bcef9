package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fpgapart/internal/faults"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partserver"
)

// ErrSimulatorFault is reported (wrapped) when an invariant violation inside
// the simulator internals panics during a cluster run. Run converts such
// panics into errors at the public API boundary. Test with
// errors.Is(err, ErrSimulatorFault).
var ErrSimulatorFault = errors.New("cluster: simulator invariant fault")

// guardSimulator converts a panic escaping the simulator into an
// ErrSimulatorFault-wrapping error. Used via defer with a named return.
func guardSimulator(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrSimulatorFault, r)
	}
}

// HedgeAuto selects the running-percentile hedge deadline: a request is
// hedged when its primary response is outstanding past the p95 of all
// responses completed by its admission time (deterministic — the percentile
// is computed over virtual-time completions, which are themselves pure
// functions of stream, config and seed). Fewer than hedgeMinSamples
// completed responses means no hedge: the estimate is not trustworthy yet.
const HedgeAuto int64 = -1

// hedgeMinSamples gates the HedgeAuto estimator until it has seen enough
// completed responses to make p95 meaningful.
const hedgeMinSamples = 8

// Request is one tenant request entering the cluster frontend: a routing
// key, the tenant it bills to, and the partserver job to execute on
// whichever shard the ring selects. Job.ArrivalUS is the request's virtual
// arrival time at the router; Job.Tag is overwritten by the router (it
// carries the request index through the scatter-gather merge).
type Request struct {
	// Tenant identifies the billing tenant for admission quotas (≥ 0).
	Tenant int
	// Key is the routing key hashed onto the ring.
	Key uint64
	// Job is the work item forwarded to the selected shard.
	Job partserver.Job
}

// Config describes one cluster deployment: the shard pool, the ring, the
// per-tenant admission quota, the membership churn schedule, replica
// routing, and the fault scenario.
type Config struct {
	// Shards is the number of partserver shards (default 3), ids 0..Shards-1.
	Shards int
	// VNodes is the per-shard virtual-node count on the ring (default 128).
	VNodes int

	// ShardFPGAs and ShardWorkers size each shard's resource pool
	// (defaults 1 and 1).
	ShardFPGAs   int
	ShardWorkers int

	// TenantQuota caps how many requests one tenant may admit per
	// QuotaWindowUS window (0 disables quotas). A request over quota is
	// deferred to the next window — delayed, never dropped — so a hot
	// tenant's burst stretches its own latency instead of everyone's.
	TenantQuota int
	// QuotaWindowUS is the admission window length (default 1000 µs).
	QuotaWindowUS int64

	// Schedule lists live membership changes (shard joins and drains) at
	// virtual times. Requests admitted at or after an event route on the
	// post-event ring; only the key ranges whose owner changed re-route, and
	// they re-route behind a deterministic handoff barrier: the new owner
	// serves a moved key only after the old owner has drained the work it
	// had already admitted for the moved ranges. In-flight jobs always
	// complete on their admission-time owner. Empty means a static ring.
	Schedule MembershipSchedule

	// Replicas is the replica-set width R (default 1): each key's replica
	// set is the first R distinct members clockwise from its hash, the
	// primary first. Hedged reads go to the first non-primary replica.
	Replicas int

	// HedgeUS enables hedged reads when nonzero (requires Replicas ≥ 2):
	// a request whose primary response is outstanding past the deadline is
	// re-issued to its first replica, the first completion wins, and the
	// loser is cancelled through the scheduler's cancel path. A positive
	// value is a fixed virtual-time deadline in µs; HedgeAuto (-1) tracks
	// the running p95 of completed responses. 0 disables hedging.
	HedgeUS int64

	// Seed drives per-shard scheduler seeding (default 1).
	Seed uint64

	// Faults optionally degrades shards: Crashes entries with Node = shard
	// id kill that shard's accept path after AfterFraction of its fair share
	// of the request stream; later requests fail over clockwise around the
	// ring. Jobs already admitted to a crashing shard still complete (the
	// crash models the frontend, not the workers). Stragglers entries with
	// Node = shard id slow every FPGA instance of that shard by Factor —
	// the straggler profile hedged reads are measured against. Other
	// scenario fields do not apply at the routing tier and are ignored.
	Faults *faults.Scenario

	// Trace attaches a simtrace session: the router reports request routing
	// samples, per-shard serve spans, crash instants, and the cluster
	// counters/histogram the perf gate pins. All emission happens after the
	// event loop has ended, in fixed order, so traces are byte-identical
	// across same-seed runs. Nil disables tracing.
	Trace *simtrace.Session

	// ReqTrace attaches a causal request capture: every request gets a
	// deterministic trace context (TraceID derived from Seed and request
	// index), an exact virtual-time latency decomposition spanning router
	// quota deferral, migration handoff, hedge wait, shard queueing,
	// batching, reconfiguration, execution, spill and retries, and a span
	// chain for critical-path analysis. The capture's flight recorder is
	// filled even when the run fails — the postmortem case. Nil disables
	// capture at zero cost.
	ReqTrace *reqtrace.Capture
}

// WithDefaults returns a copy with unset knobs filled in.
func (c Config) WithDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.VNodes == 0 {
		c.VNodes = 128
	}
	if c.ShardFPGAs == 0 && c.ShardWorkers == 0 {
		c.ShardFPGAs = 1
		c.ShardWorkers = 1
	}
	if c.QuotaWindowUS == 0 {
		c.QuotaWindowUS = 1000
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate reports whether the configuration is runnable.
func (c *Config) Validate() (err error) {
	defer guardSimulator(&err)
	if c.Shards < 1 {
		return fmt.Errorf("cluster: Shards %d < 1", c.Shards)
	}
	if c.VNodes < 1 || c.VNodes > MaxVNodes {
		return fmt.Errorf("cluster: VNodes %d outside [1, %d]", c.VNodes, MaxVNodes)
	}
	if c.ShardFPGAs < 0 || c.ShardWorkers < 0 || c.ShardFPGAs+c.ShardWorkers == 0 {
		return fmt.Errorf("cluster: each shard needs at least one resource (ShardFPGAs %d, ShardWorkers %d)", c.ShardFPGAs, c.ShardWorkers)
	}
	if c.TenantQuota < 0 {
		return fmt.Errorf("cluster: negative TenantQuota %d", c.TenantQuota)
	}
	if c.QuotaWindowUS < 1 {
		return fmt.Errorf("cluster: QuotaWindowUS %d < 1", c.QuotaWindowUS)
	}
	if err := c.Schedule.Validate(c.Shards); err != nil {
		return err
	}
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: Replicas %d < 1", c.Replicas)
	}
	if c.HedgeUS < HedgeAuto {
		return fmt.Errorf("cluster: HedgeUS %d < %d (HedgeAuto)", c.HedgeUS, HedgeAuto)
	}
	if c.HedgeUS != 0 && c.Replicas < 2 {
		return fmt.Errorf("cluster: hedged reads need Replicas ≥ 2, have %d", c.Replicas)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if err := c.Faults.CheckNodes(c.Shards); err != nil {
			return fmt.Errorf("cluster: shards: %w", err)
		}
	}
	return nil
}

// quotaKey is one tenant's admission window.
type quotaKey struct {
	tenant int
	window int64
}

// exec is one execution of a request on one shard scheduler — its primary,
// or its replica hedge — as the router sees it. Its outcome is the shard
// scheduler's (runState.result).
type exec struct {
	shard int  // -1: none (never admitted / not hedged)
	job   int  // id on the shard's scheduler, -1 until submitted
	ended bool // the job is terminal
}

// routed is the router's per-request state, in request order.
type routed struct {
	primary   int // ring owner before failover
	admitUS   int64
	throttled bool
	// epoch is the membership epoch at admission; handoffUS the drain-barrier
	// wait imposed because the request's key had just moved owner.
	epoch     int
	handoffUS int64
	// run is the request on its serving shard; hedge its replica hedge, issued
	// at hedgeIssueUS. responded marks the first completed response.
	run          exec
	hedge        exec
	hedgeIssueUS int64
	responded    bool
}

// hedged reports whether a replica hedge was issued.
func (d *routed) hedged() bool { return d.hedge.shard >= 0 }

// timer is one pending router event: the admission of a request that may
// have to wait for a drain or may be hedged, or a hedge deadline.
type timer struct {
	us    int64
	hedge bool
	idx   int
}

// timerHeap is a binary min-heap of timers ordered by time, admissions
// ahead of hedge deadlines, then request index — a total order, so the pop
// sequence is the order itself. It holds timers by value: container/heap's
// interface would box every timer pushed and popped.
type timerHeap []timer

func (h timerHeap) less(a, b int) bool {
	if h[a].us != h[b].us {
		return h[a].us < h[b].us
	}
	if h[a].hedge != h[b].hedge {
		return !h[a].hedge
	}
	return h[a].idx < h[b].idx
}

// push adds t.
//
//fpgavet:hotpath
func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	q := *h
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if !q.less(i, up) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
}

// pop removes and returns the first timer.
//
//fpgavet:hotpath
func (h *timerHeap) pop() timer {
	q := *h
	t, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return t
}

// runState is the working state of one cluster run: the router, the shard
// schedulers and the pending router timers, all advanced by the one event
// loop in run. Every field is a pure function of (requests, config, seed)
// and the events processed so far.
type runState struct {
	reqs []Request
	cfg  Config

	// rings[e] is the ring of membership epoch e; events the schedule.
	rings  []*Ring
	events MembershipSchedule
	// owners[idx*len(rings)+e] is request idx's ring owner in epoch e, looked
	// up once in arrive.
	owners []int
	// numShards sizes every per-shard array: the largest shard id that is
	// ever a ring member, plus one. Departed shards keep their slot, so the
	// report can state a drained shard's cumulative load.
	numShards int

	dieAfter []int // -1: never crashes
	dead     []bool
	crashUS  []int64
	// shardScen is the per-shard partserver fault scenario (stragglers
	// mapped onto the shard's FPGA instances); nil for healthy shards.
	shardScen []*faults.Scenario

	order     []int // request indices in (ArrivalUS, index) order
	decisions []routed
	served    []int
	quota     map[quotaKey]int
	timers    timerHeap
	reps      []int // hedgeTarget's replica set, kept for the next one
	// shards[s] is shard s's scheduler, created at its first submission.
	shards []*partserver.Scheduler
	// memo holds the requests' outcomes for every shard scheduler of a
	// hedged run, the one configuration in which a request can execute twice
	// on one backend (nil otherwise; see lookahead).
	memo *partserver.Memo

	// draining[j][o] counts the requests old owner o has admitted, and not
	// yet finished, for the key ranges membership event j moves away from it;
	// held[j][o] lists the post-event requests for those ranges waiting at
	// the router for the count to reach zero — the observed drain.
	draining [][]int
	held     [][][]int
	holding  int // requests in held, over all barriers

	// samples is the HedgeAuto estimator's state: the router-observed
	// latencies of the responses completed so far, ascending.
	samples []int64

	throttleDelayUS int64

	// flight is the router's flight-recorder ring, nil when Config.ReqTrace
	// is; each shard scheduler keeps its own.
	flight *reqtrace.Flight
}

func newRunState(reqs []Request, cfg Config) (*runState, error) {
	rings, err := cfg.Schedule.epochs(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	st := &runState{
		reqs:      reqs,
		cfg:       cfg,
		rings:     rings,
		events:    cfg.Schedule,
		owners:    make([]int, len(reqs)*len(rings)),
		numShards: cfg.Schedule.maxMember(cfg.Shards) + 1,
		quota:     make(map[quotaKey]int),
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		if inj, err = faults.New(*cfg.Faults); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}

	// Crash thresholds: a crashing shard accepts exactly
	// floor(AfterFraction · fair share) requests, then fail-stops its accept
	// path. AfterFraction 0 is dead on arrival. Only the initial pool can
	// crash (Validate pins crash ids below Shards); joined shards keep the
	// zero values.
	share := (len(reqs) + cfg.Shards - 1) / cfg.Shards
	st.dieAfter = make([]int, st.numShards)
	st.dead = make([]bool, st.numShards)
	st.crashUS = make([]int64, st.numShards)
	st.shardScen = make([]*faults.Scenario, st.numShards)
	for s := 0; s < st.numShards; s++ {
		st.dieAfter[s] = -1
		if inj == nil || s >= cfg.Shards {
			continue
		}
		if at, ok := inj.CrashPoint(s, int64(share)); ok {
			st.dieAfter[s], st.dead[s] = int(at), at == 0
		}
		// A straggling shard straggles all of its FPGA instances: the
		// cluster-level Straggler.Node names the shard, the shard-level
		// scenario names the instances.
		if f := inj.StraggleFactor(s); f > 1 {
			scen := &faults.Scenario{Seed: hashutil.SplitMix64(cfg.Seed ^ uint64(s+1))}
			for i := 0; i < cfg.ShardFPGAs; i++ {
				scen.Stragglers = append(scen.Stragglers, faults.Straggler{Node: i, Factor: f})
			}
			st.shardScen[s] = scen
		}
	}

	// Admission order: (ArrivalUS, index), the virtual-time order requests
	// reach the router.
	st.order = make([]int, len(reqs))
	for i := range st.order {
		st.order[i] = i
	}
	sort.SliceStable(st.order, func(a, b int) bool {
		return reqs[st.order[a]].Job.ArrivalUS < reqs[st.order[b]].Job.ArrivalUS
	})

	st.decisions = make([]routed, len(reqs))
	st.served = make([]int, st.numShards)
	st.shards = make([]*partserver.Scheduler, st.numShards)
	st.draining = make([][]int, len(st.events))
	st.held = make([][][]int, len(st.events))
	for j := range st.events {
		st.draining[j] = make([]int, st.numShards)
		st.held[j] = make([][]int, st.numShards)
	}
	if cfg.ReqTrace != nil {
		st.flight = reqtrace.NewFlight(0)
	}
	return st, nil
}

// noEvent is the loop's "nothing scheduled" time.
const noEvent = int64(math.MaxInt64)

// run is the cluster's event loop. A request's admission decision depends
// on nothing but the decisions before it, so all of them are taken first, in
// arrival order; each hands its job to a shard scheduler ahead of time (the
// scheduler holds it until its admit time) or leaves an admission timer. The
// loop then advances the earliest pending event of the whole stack — a
// router timer or a shard scheduler's next step — until nothing is pending.
// Events at the same virtual time are taken in a fixed order: admissions,
// then shard steps by shard id, then hedge deadlines. So what the router
// sends a shard for time t is in its queue before the shard processes t, and
// a primary that completes at t is not hedged at t. A hedged run computes
// CPU outcomes ahead of the loop (lookahead) until the loop ends.
func (st *runState) run() (err error) {
	for _, ev := range st.events {
		kind := "shard_join"
		if ev.Kind == Drain {
			kind = "shard_drain"
		}
		st.record(ev.AtUS, kind, -1, int64(ev.Shard))
	}
	for _, idx := range st.order {
		if err := st.arrive(idx); err != nil {
			return err
		}
	}
	if st.memo != nil {
		stop := st.lookahead()
		defer func() {
			if aheadErr := stop(); err == nil {
				err = aheadErr
			}
		}()
	}
	for {
		timerUS, shardUS, due := noEvent, noEvent, -1
		if len(st.timers) > 0 {
			timerUS = st.timers[0].us
		}
		if st.cfg.HedgeUS == 0 && st.holding == 0 {
			if err := st.advanceApart(timerUS); err != nil {
				return err
			}
		}
		for s, sched := range st.shards {
			if sched == nil {
				continue
			}
			if us, ok := sched.NextEventUS(); ok && us < shardUS {
				shardUS, due = us, s
			}
		}
		var err error
		switch {
		case timerUS == noEvent && shardUS == noEvent:
			return nil
		case timerUS <= shardUS && !st.timers[0].hedge:
			err = st.admit(st.timers.pop())
		case shardUS <= timerUS:
			err = st.step(due, shardUS)
		default:
			err = st.hedge(st.timers.pop())
		}
		if err != nil {
			return err
		}
	}
}

// advanceApart steps every shard up to, not including, virtual time limit,
// each on its own goroutine. It is called only while nothing ties the shards
// to each other — no hedging, no request held behind a drain: a job that
// ends then touches its own request and its own shard's drain counts and
// nothing else, so the shards' events commute, the result is that of the
// global order, and the host executes the shards' work in parallel instead
// of one batch at a time. A partserver.Scheduler runs each batch inside the
// Step that dispatches it, so all of a shard's work happens here, on its
// goroutine; the only other goroutine of the serving stack is a hedged run's
// lookahead, and a hedged run never gets here.
func (st *runState) advanceApart(limit int64) error {
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for s, sched := range st.shards {
		if sched == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guardSimulator(&errs[s])
			for errs[s] == nil {
				us, ok := sched.NextEventUS()
				if !ok || us >= limit {
					return
				}
				errs[s] = st.step(s, us)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// lookahead starts the goroutine that computes every admitted request's CPU
// outcome into the memo, in admission order — admitUS, then index, all known
// once arrive has run — while the loop steps the shards, and returns the
// function that stops it and waits for it. A CPU dispatch of the loop takes
// the outcome if it is done, waits for it if it is being computed, and
// computes it itself if the lookahead has not got there (which then skips
// it); FPGA outcomes are the loop's. Only a hedged run has it: its loop never
// steps shards apart, so without it the host's second core would idle, while
// beside advanceApart's goroutines it only competes with them (DESIGN §17).
// One goroutine, in one fixed order, whatever the host: what it computes is
// what the loop would, so only host time depends on how the two interleave.
func (st *runState) lookahead() (stop func() error) {
	var order []int
	for idx := range st.decisions {
		if st.decisions[idx].run.shard >= 0 {
			order = append(order, idx)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(st.decisions[a].admitUS, st.decisions[b].admitUS)
	})
	var halt atomic.Bool
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer guardSimulator(&err)
		for _, idx := range order {
			if halt.Load() {
				return
			}
			st.memo.Ahead(idx, &st.reqs[idx].Job)
		}
	}()
	return func() error {
		halt.Store(true)
		<-done
		return err
	}
}

// arrive makes request idx's admission decision: per-tenant quota deferral
// first (which fixes the admit time and thereby the membership epoch), then
// ring lookup on the epoch's ring with clockwise failover past dead shards,
// then crash bookkeeping. A request nothing can hold back is handed to its
// shard at once, to arrive there at its admit time; one that may be hedged,
// or whose key a membership event moved to this owner, gets an admission
// timer instead.
func (st *runState) arrive(idx int) error {
	r := &st.reqs[idx]
	d := &st.decisions[idx]
	d.run = exec{shard: -1, job: -1}
	d.hedge = exec{shard: -1, job: -1}

	// Per-tenant admission quota: defer over-quota requests to the next
	// window until one has room. Deferral preserves the work (and thus
	// checksum parity with the single-node reference); it only delays it.
	admit := r.Job.ArrivalUS
	if st.cfg.TenantQuota > 0 {
		for {
			w := admit / st.cfg.QuotaWindowUS
			k := quotaKey{tenant: r.Tenant, window: w}
			if st.quota[k] < st.cfg.TenantQuota {
				st.quota[k]++
				break
			}
			admit = (w + 1) * st.cfg.QuotaWindowUS
			d.throttled = true
		}
	}
	if d.throttled {
		st.throttleDelayUS += admit - r.Job.ArrivalUS
		st.record(admit, "throttle", idx, admit-r.Job.ArrivalUS)
	}
	d.admitUS = admit
	d.epoch = st.events.epochAt(admit)
	owners := st.owners[idx*len(st.rings) : (idx+1)*len(st.rings)]
	for e, ring := range st.rings {
		owners[e] = ring.Shard(r.Key)
	}
	d.primary = owners[d.epoch]

	shard, ok := d.primary, true
	if st.dead[shard] {
		shard, ok = st.rings[d.epoch].ShardSkipping(r.Key, func(s int) bool { return !st.dead[s] })
	}
	if !ok {
		st.record(admit, "unrouted", idx, int64(d.primary))
		return nil
	}
	d.run.shard = shard
	if shard != d.primary {
		st.record(admit, "failover", idx, int64(shard))
	}
	st.served[shard]++
	if st.dieAfter[shard] >= 0 && st.served[shard] >= st.dieAfter[shard] && !st.dead[shard] {
		st.dead[shard] = true
		st.crashUS[shard] = admit
		st.record(admit, "shard_crash", -1, int64(shard))
	}
	for j := d.epoch; j < len(st.events); j++ {
		if st.leaves(idx, j) {
			st.draining[j][shard]++
		}
	}

	if j, _ := st.movedBy(idx); j < 0 && st.cfg.HedgeUS == 0 {
		return st.submit(idx, admit)
	}
	st.timers.push(timer{us: admit, idx: idx})
	return nil
}

// leaves reports whether membership event j moves request idx's key away
// from the shard serving it.
func (st *runState) leaves(idx, j int) bool {
	o := st.decisions[idx].run.shard
	return st.owner(idx, j) == o && st.owner(idx, j+1) != o
}

// owner is request idx's ring owner in membership epoch e.
func (st *runState) owner(idx, e int) int { return st.owners[idx*len(st.rings)+e] }

// movedBy returns the membership event that handed request idx's key to the
// shard serving it, and the old owner it came from: the latest event before
// the request's admission epoch that moved the key there (a later move
// supersedes an earlier one). j is -1 when the key did not move.
func (st *runState) movedBy(idx int) (j, oldOwner int) {
	d := &st.decisions[idx]
	for j := d.epoch - 1; j >= 0; j-- {
		if o, n := st.owner(idx, j), st.owner(idx, j+1); o != n && n == d.run.shard {
			return j, o
		}
	}
	return -1, -1
}

// admit is request idx's admission timer: the hedge deadline starts
// counting, and the request goes to its shard — unless its key has just
// moved there and the old owner has not yet drained the work it had admitted
// for the moved range, in which case the request waits at the router for the
// drain to be observed (drained releases it).
func (st *runState) admit(t timer) error {
	idx := t.idx
	d := &st.decisions[idx]
	if deadline, ok := st.hedgeDeadline(); ok {
		st.timers.push(timer{us: d.admitUS + deadline, hedge: true, idx: idx})
	}
	if j, o := st.movedBy(idx); j >= 0 {
		st.record(d.admitUS, "range_moved", idx, int64(d.run.shard))
		if st.draining[j][o] > 0 {
			st.held[j][o] = append(st.held[j][o], idx)
			st.holding++
			return nil
		}
	}
	return st.submit(idx, d.admitUS)
}

// hedgeDeadline returns the hedge deadline, in µs past admission, of a
// request admitted now. Fixed mode returns HedgeUS; HedgeAuto the
// nearest-rank p95 of the responses completed so far (ok is false until
// hedgeMinSamples of them have). ok is false when hedging is off.
func (st *runState) hedgeDeadline() (int64, bool) {
	if st.cfg.HedgeUS != HedgeAuto {
		return st.cfg.HedgeUS, st.cfg.HedgeUS > 0
	}
	if len(st.samples) < hedgeMinSamples {
		return 0, false
	}
	p95 := reqtrace.NearestRank(st.samples, 95)
	return p95, p95 > 0
}

// requestOf decodes a job Tag: a primary carries its request index, a hedge
// the complement of it, so one scheduler serves both and the merge tells
// them apart without a lookup.
func requestOf(tag int64) (idx int, hedge bool) {
	if tag < 0 {
		return int(^tag), true
	}
	return int(tag), false
}

// send submits request idx's job, tagged tag, to e.shard's scheduler, to
// arrive there at arrivalUS. The scheduler is started at its first job; the
// cluster cannot say how many jobs a shard will get, and never passes
// shard-level crashes, so the job total stays undeclared.
func (st *runState) send(idx int, e *exec, tag, arrivalUS int64) (err error) {
	sched := st.shards[e.shard]
	if sched == nil {
		sched, err = partserver.NewScheduler(partserver.Config{
			FPGAs:    st.cfg.ShardFPGAs,
			Workers:  st.cfg.ShardWorkers,
			Seed:     hashutil.SplitMix64(st.cfg.Seed ^ uint64(e.shard+1)),
			Faults:   st.shardScen[e.shard],
			ReqTrace: st.cfg.ReqTrace,
			Memo:     st.memo,
		}, partserver.UnknownTotal)
		st.shards[e.shard] = sched
	}
	if err == nil {
		job := st.reqs[idx].Job
		job.Tag = tag
		job.ArrivalUS = arrivalUS
		e.job, err = sched.Submit(job)
	}
	if err != nil {
		return fmt.Errorf("cluster: shard %d: %w", e.shard, err)
	}
	return nil
}

// submit hands request idx to its serving shard.
func (st *runState) submit(idx int, arrivalUS int64) error {
	return st.send(idx, &st.decisions[idx].run, int64(idx), arrivalUS)
}

// hedge is request idx's hedge deadline: if the primary response is still
// outstanding, the request is re-issued to its first eligible replica as an
// ordinary job in that shard's queue.
func (st *runState) hedge(t timer) error {
	idx := t.idx
	d := &st.decisions[idx]
	if d.run.ended {
		return nil
	}
	d.hedge.shard = st.hedgeTarget(idx, t.us)
	if !d.hedged() {
		return nil
	}
	d.hedgeIssueUS = t.us
	st.record(t.us, "hedge_issued", idx, int64(d.hedge.shard))
	return st.send(idx, &d.hedge, ^int64(idx), t.us)
}

// hedgeTarget picks request idx's hedge destination at virtual time now: the
// first non-primary member of the key's admission-epoch replica set that is
// still a member and has not crashed by then (-1: no eligible replica).
func (st *runState) hedgeTarget(idx int, now int64) int {
	d := &st.decisions[idx]
	st.reps = st.rings[d.epoch].ReplicaSet(st.reps, st.reqs[idx].Key, st.cfg.Replicas)
	ring := st.rings[st.events.epochAt(now)]
	for _, c := range st.reps[1:] {
		if c == d.run.shard || !ring.Member(c) {
			continue
		}
		if st.dead[c] && st.crashUS[c] <= now {
			continue
		}
		return c
	}
	return -1
}

// step advances shard s's scheduler by one event, at virtual time us, and
// routes every job that ended back to its request.
func (st *runState) step(s int, us int64) error {
	sched := st.shards[s]
	for _, id := range sched.Step() {
		jr := sched.Result(id)
		idx, hedge := requestOf(jr.Tag)
		d := &st.decisions[idx]
		if jr.Status == partserver.StatusDone && !d.responded {
			d.responded = true
			if st.cfg.HedgeUS == HedgeAuto {
				at, _ := slices.BinarySearch(st.samples, jr.DoneUS-d.admitUS)
				st.samples = slices.Insert(st.samples, at, jr.DoneUS-d.admitUS)
			}
		}
		if hedge {
			d.hedge.ended = true
			continue
		}
		d.run.ended = true
		if st.hedgeWon(idx) {
			st.record(st.result(&d.hedge).DoneUS, "hedge_won", idx, int64(d.hedge.shard))
		} else if d.hedged() && !d.hedge.ended {
			// The loser is cancelled the instant the primary finishes, unless
			// it is already executing (then it completes as wasted work).
			st.shards[d.hedge.shard].Cancel(d.hedge.job, us)
		}
		if err := st.drained(idx, us); err != nil {
			return err
		}
	}
	return nil
}

// result is execution e's outcome as its shard scheduler holds it.
func (st *runState) result(e *exec) partserver.JobResult {
	return st.shards[e.shard].Result(e.job)
}

// hedgeWon reports whether request idx's hedge ended StatusDone strictly
// before its primary ended: then the request reports the hedge's outcome.
// Final once the primary has ended.
func (st *runState) hedgeWon(idx int) bool {
	d := &st.decisions[idx]
	if !d.run.ended || !d.hedge.ended {
		return false
	}
	h := st.result(&d.hedge)
	return h.Status == partserver.StatusDone && h.DoneUS < st.result(&d.run).DoneUS
}

// drained takes finished request idx off the drain count of every membership
// event that moves its key away from its shard. A count reaching zero is the
// observed drain of that old owner's moved range: the requests held behind
// it go to their new owner now.
func (st *runState) drained(idx int, now int64) error {
	d := &st.decisions[idx]
	o := d.run.shard
	for j := d.epoch; j < len(st.events); j++ {
		if !st.leaves(idx, j) {
			continue
		}
		if st.draining[j][o]--; st.draining[j][o] > 0 {
			continue
		}
		for _, waiter := range st.held[j][o] {
			w := &st.decisions[waiter]
			w.handoffUS = now - w.admitUS
			st.holding--
			if err := st.submit(waiter, now); err != nil {
				return err
			}
		}
		st.held[j][o] = nil
	}
	return nil
}

// Run routes reqs across the configured shard pool and blocks until every
// admitted request completes on its shard. The full request stream is
// supplied up front because deterministic virtual-time admission needs the
// arrival order independent of host scheduling.
//
// The whole serving stack runs on one virtual-time event loop (runState.run):
// the router and every shard scheduler advance in global event order, and
// each decision is a pure function of the events before it. Shards whose
// events commute are stepped on a goroutine each (advanceApart) and the loop
// waits for all of them; a hedged run, whose loop never steps shards apart,
// computes CPU outcomes on one goroutine beside it (lookahead) and stops it
// before returning. Either way the same seed + requests + config render a
// byte-identical Report, trace and metrics snapshot, even under the race
// detector.
func Run(reqs []Request, cfg Config) (*Report, error) {
	return serve(reqs, cfg, true)
}

// serve is Run; memoised false runs a hedged stream without the outcome memo
// and the lookahead, every dispatch executing its job.
func serve(reqs []Request, cfg Config, memoised bool) (rep *Report, err error) {
	defer guardSimulator(&err)
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i := range reqs {
		if reqs[i].Tenant < 0 {
			return nil, fmt.Errorf("cluster: request %d negative tenant %d", i, reqs[i].Tenant)
		}
		if reqs[i].Job.ArrivalUS < 0 {
			return nil, fmt.Errorf("cluster: request %d negative arrival %d", i, reqs[i].Job.ArrivalUS)
		}
	}

	st, err := newRunState(reqs, cfg)
	if err != nil {
		return nil, err
	}
	if memoised && cfg.HedgeUS != 0 {
		st.memo = partserver.NewMemo(len(reqs), func(tag int64) int {
			idx, _ := requestOf(tag)
			return idx
		})
	}
	// Causal capture: the flight merge is deferred so a failed run still
	// dumps a postmortem.
	defer st.finishFlight()

	if err := st.run(); err != nil {
		return nil, err
	}
	st.buildTraces()

	rep = st.gather()
	st.emit(rep)
	return rep, nil
}
