package reqtrace

import "fpgapart/internal/simtrace"

// DefaultFlightCap is the default capacity of a flight-recorder ring:
// enough causal context around a fault for a postmortem, small enough to
// stay resident however long the run.
const DefaultFlightCap = 256

// Attempt is one execution attempt of one job, as charged by the
// scheduler. The five duration fields tile the attempt's batch interval
// exactly: StartUS + ReconfigUS + PreWaitUS + ExecUS + SpillUS + DrainUS
// is the batch completion time, for every job of the batch.
type Attempt struct {
	// Resource is the executing timeline ("fpga0", "cpu1", …).
	Resource string

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

	// Aborted marks a scheduler-decided transient fault or crash verdict.
	Aborted bool
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
type Flight = simtrace.Ring[FlightEvent]

// NewFlight returns a flight recorder holding up to capacity events
// (DefaultFlightCap when capacity ≤ 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return simtrace.NewRing[FlightEvent](capacity)
}
