package reqtrace

// Capture configures causal tracing for a scheduled run and collects its
// outputs. Attach an empty Capture to enable tracing; after the run it
// holds the per-request traces and the flight-recorder timeline. A
// standalone scheduler run has one ring; a multi-shard run merges the
// router's ring with every shard's (shard components prefixed "s<N>.", job
// ids remapped to request indices, ordered by virtual time). The flight
// timeline is filled even when the run fails — that is the postmortem case
// it exists for. Each ring holds DefaultFlightCap events.
type Capture struct {
	// Traces holds one RequestTrace per submitted request, in request
	// order, filled on successful completion.
	Traces []RequestTrace
	// Flight is the merged flight-recorder timeline; FlightDropped counts
	// events overwritten across all rings.
	Flight        []FlightEvent
	FlightDropped int64
}
