package reqtrace

// DefaultFlightCap is the default capacity of a flight-recorder ring:
// enough causal context around a fault for a postmortem, small enough to
// stay resident however long the run.
const DefaultFlightCap = 256

// Attempt is one execution attempt of one job, as charged by the
// scheduler. The five duration fields tile the attempt's batch interval
// exactly: StartUS + ReconfigUS + PreWaitUS + ExecUS + SpillUS + DrainUS
// is the batch completion time, for every job of the batch.
type Attempt struct {
	// Resource is the executing timeline ("fpga0", "cpu1", …); FPGA
	// distinguishes the pools without string comparison.
	Resource string
	FPGA     bool

	// StartUS is the batch dispatch time.
	StartUS int64
	// ReconfigUS is the batch's circuit-reconfiguration window (0 when the
	// configuration was already loaded, or on CPU).
	ReconfigUS int64
	// PreWaitUS is the summed charge of earlier jobs in the batch.
	PreWaitUS int64
	// ExecUS is this job's own charge, spill excluded.
	ExecUS int64
	// SpillUS is the spill round-trip share of this job's charge.
	SpillUS int64
	// DrainUS is the summed charge of later jobs in the batch.
	DrainUS int64

	// Aborted marks a scheduler-decided transient fault or crash verdict;
	// Crash narrows it to a fail-stop; Overflow marks a PAD-mode partition
	// overflow that degraded the job to CPU.
	Aborted  bool
	Crash    bool
	Overflow bool
}

// JobRecord is one job's causal history, as its scheduler charged it.
type JobRecord struct {
	ID int
	// ArrivalUS is the job's arrival on the scheduler's clock (the admit
	// time when a router fronts the scheduler); DoneUS its terminal time.
	ArrivalUS int64
	DoneUS    int64
	// Status is the terminal status string.
	Status   string
	Attempts []Attempt
}

// FlightEvent is one entry of the bounded flight recorder: a causal event
// on the virtual clock, recorded in scheduler-loop (virtual-time) order.
type FlightEvent struct {
	// US is the virtual time of the event.
	US int64
	// Comp is the component the event happened on ("router", "sched",
	// "fpga0", …; cluster merges prefix the shard).
	Comp string
	// Kind names the event: "dispatch", "done", "fault", "crash",
	// "degrade", "timeout", "cancel", "failed", "throttle", "failover",
	// "shard_crash", "unrouted"; membership and hedging add "shard_join",
	// "shard_drain", "range_moved", "hedge_issued", "hedge_won" (router
	// side; a hedge that lost in the queue is its scheduler's "cancel").
	Kind string
	// Job is the job id (request index after a cluster merge), -1 when the
	// event is not job-scoped.
	Job int
	// Arg carries per-kind context: the attempt number for scheduler
	// events, the shard id for router events.
	Arg int64
}

// Flight is a fixed-capacity ring of the last K causal events — a hardware
// flight recorder for the virtual-time scheduler. Nil is a no-op recorder.
type Flight struct {
	ring  []FlightEvent
	next  int
	total int64
}

// NewFlight returns a flight recorder holding up to capacity events
// (DefaultFlightCap when capacity ≤ 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Flight{ring: make([]FlightEvent, 0, capacity)}
}

// Record appends an event, overwriting the oldest when full. Nil-safe and
// allocation-free: the ring is preallocated at construction.
func (f *Flight) Record(e FlightEvent) {
	if f == nil {
		return
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, e)
	} else {
		f.ring[f.next] = e
	}
	f.next++
	if f.next == cap(f.ring) {
		f.next = 0
	}
	f.total++
}

// Events returns the surviving events oldest-first (freshly allocated).
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.ring))
	if len(f.ring) < cap(f.ring) {
		return append(out, f.ring...)
	}
	out = append(out, f.ring[f.next:]...)
	return append(out, f.ring[:f.next]...)
}

// Dropped returns how many events were overwritten by newer ones.
func (f *Flight) Dropped() int64 {
	if f == nil {
		return 0
	}
	return f.total - int64(len(f.ring))
}
