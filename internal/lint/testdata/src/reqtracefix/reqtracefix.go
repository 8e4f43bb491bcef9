// Package reqtracefix is the known-bad twin of the causal-tracing layer:
// host-clock stamps flowing into a job record and the flight ring
// (directly and laundered through a helper), a map-range merge of per-shard
// flight timelines, a wall-clock deadline on the deterministic path, and a
// marker-declared hot recording wrapper that allocates per event. The tests
// configure this package's import path onto the deterministic path, so every
// construct here must be caught by the roster that guards the real
// fpgapart/internal/reqtrace package.
package reqtracefix

import (
	"time"

	"fpgapart/internal/reqtrace"
)

// StampAdmission feeds the host clock straight into a job record's arrival
// stamp — the time every latency breakdown starts from.
func StampAdmission(id int) reqtrace.JobRecord {
	return reqtrace.JobRecord{ID: id, ArrivalUS: time.Now().UnixNano() / 1000} // want determinism
}

// RecordLaundered routes host time through a helper into a flight event;
// the finding lands in the helper, where the clock is read.
func RecordLaundered(f *reqtrace.Flight, job int) {
	f.Record(reqtrace.FlightEvent{US: nowUS(), Comp: "sched", Kind: "fault", Job: job})
}

func nowUS() int64 {
	return time.Now().UnixNano() / 1000 // want determinism
}

// RingStamp writes host time into the flight ring directly.
func RingStamp(f *reqtrace.Flight, job int) {
	f.Record(reqtrace.FlightEvent{time.Since(epoch).Microseconds(), "router", "throttle", job, 0}) // want determinism
}

var epoch time.Time

// MergeShards gathers per-shard flight timelines by ranging a map — the
// iteration order scrambles the merged postmortem between runs.
func MergeShards(shards map[int][]reqtrace.FlightEvent) []reqtrace.FlightEvent {
	var out []reqtrace.FlightEvent
	for _, evs := range shards { // want determinism
		out = append(out, evs...)
	}
	return out
}

// CleanRecord stamps a flight event with virtual time only: the analyzers
// must stay quiet here.
func CleanRecord(f *reqtrace.Flight, us int64, job int) {
	f.Record(reqtrace.FlightEvent{US: us, Comp: "sched", Kind: "dispatch", Job: job})
}

// HotAnnotate is a marker-declared hot wrapper that formats a label per
// event — a per-event allocation the zero-alloc recording contract forbids.
//
//fpgavet:hotpath
func HotAnnotate(f *reqtrace.Flight, us int64, job int) {
	labels := []string{"dispatch"} // want hotpath-alloc
	f.Record(reqtrace.FlightEvent{US: us, Comp: "sched", Kind: labels[0], Job: job})
}
