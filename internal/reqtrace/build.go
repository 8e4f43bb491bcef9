package reqtrace

// RouterStep is the router-side prefix of one request's causal chain: the
// ring decision and the quota-adjusted admission, as decided in
// (ArrivalUS, index) order by the cluster frontend.
type RouterStep struct {
	// ArrivalUS is the request's arrival at the router; AdmitUS the
	// quota-adjusted admission (== ArrivalUS when not throttled).
	ArrivalUS int64
	AdmitUS   int64
	Throttled bool
	// Shard is the serving shard after failover (-1: every shard was
	// dead); Primary the ring owner before failover.
	Shard   int
	Primary int

	// HandoffUS is the migration drain-barrier wait between admission and
	// the serving shard's arrival: the request's key had just moved to a new
	// owner, which may not serve it before the old owner drained the moved
	// range (0 when the key was not migrating).
	HandoffUS int64

	// HedgeWon marks a request the router hedged to a replica after the
	// virtual-time deadline and whose hedge finished first; HedgeIssueUS is
	// the issue instant (AdmitUS + deadline). When the hedge won, the job record
	// passed to BuildRouted must be the hedge's, from the replica's
	// scheduler: the winner's chain is then quota wait → hedge wait
	// (admission to issue) → the hedge's queueing and execution on the
	// replica, and the handoff barrier (a primary-side delay) is not charged.
	HedgeWon     bool
	HedgeIssueUS int64
}

// BuildJob converts one standalone scheduler job record into a request
// trace under seed. The job id is the request index.
func BuildJob(seed uint64, job *JobRecord) RequestTrace {
	return build(seed, job.ID, nil, job)
}

// BuildRouted converts one routed request — the router step plus the shard
// scheduler's job record — into a request trace under seed. job is nil for
// a request no live shard could accept.
func BuildRouted(seed uint64, index int, step RouterStep, job *JobRecord) RequestTrace {
	return build(seed, index, &step, job)
}

// builder threads the causal chain: each added segment's predecessor is the
// previously added span, so the chain order encodes the request's causal
// DAG (and, every span having one predecessor, its critical path).
type builder struct {
	rt  *RequestTrace
	seq int
}

func (b *builder) add(comp string, kind Component, start, dur int64) {
	b.rt.Spans = append(b.rt.Spans, Span{
		ID:      b.rt.TraceID.SpanID(b.seq),
		Comp:    comp,
		Kind:    kind,
		StartUS: start,
		DurUS:   dur,
	})
	b.seq++
	if kind >= 0 && int(kind) < NumComponents {
		b.rt.Breakdown[kind] += dur
	}
}

func build(seed uint64, index int, step *RouterStep, job *JobRecord) RequestTrace {
	rt := RequestTrace{
		TraceID: NewTraceID(seed, index),
		Index:   index,
		Shard:   -1,
		Status:  "unrouted",
	}
	rootComp := "sched"
	arrival := int64(0)
	if step != nil {
		rootComp = "router"
		arrival = step.ArrivalUS
		rt.Throttled = step.Throttled
		if step.Shard >= 0 {
			rt.Shard = step.Shard
			rt.Rerouted = step.Shard != step.Primary
		}
	} else if job != nil {
		arrival = job.ArrivalUS
	}
	done := arrival
	if job != nil {
		rt.Status = job.Status
		done = job.DoneUS
	}
	rt.ArrivalUS, rt.DoneUS = arrival, done
	rt.LatencyUS = done - arrival

	b := &builder{rt: &rt}
	// Root span: the whole request. Its duration is the latency itself,
	// not a decomposition component.
	b.add(rootComp, CompRequest, arrival, rt.LatencyUS)

	if step != nil {
		// Ring lookup + failover: charged zero virtual time by the current
		// router model, kept as an explicit zero-duration segment.
		b.add("router", CompRoute, arrival, 0)
		if step.AdmitUS > arrival {
			b.add("router", CompQuotaWait, arrival, step.AdmitUS-arrival)
		}
		if step.HedgeWon {
			// The winner is the hedge: its job record starts at the
			// issue instant, so the deadline interval is hedge wait. The
			// primary's handoff barrier is not on the winning path.
			if step.HedgeIssueUS > step.AdmitUS {
				b.add("router", CompHedgeWait, step.AdmitUS, step.HedgeIssueUS-step.AdmitUS)
			}
		} else if step.HandoffUS > 0 {
			b.add("router", CompHandoffWait, step.AdmitUS, step.HandoffUS)
		}
	}

	if job != nil {
		cursor := job.ArrivalUS
		for i := range job.Attempts {
			a := &job.Attempts[i]
			if a.StartUS > cursor {
				// Wait to this dispatch: admission-queue wait before the
				// first attempt, requeue wait between attempts.
				kind := CompQueueWait
				if i > 0 {
					kind = CompRetryWait
				}
				b.add("sched", kind, cursor, a.StartUS-cursor)
			}
			cursor = a.StartUS
			if a.ReconfigUS > 0 {
				b.add(a.Resource, CompReconfig, cursor, a.ReconfigUS)
				cursor += a.ReconfigUS
			}
			if a.PreWaitUS > 0 {
				b.add(a.Resource, CompBatchWait, cursor, a.PreWaitUS)
				cursor += a.PreWaitUS
			}
			b.add(a.Resource, CompExec, cursor, a.ExecUS)
			cursor += a.ExecUS
			if a.SpillUS > 0 {
				b.add(a.Resource, CompSpill, cursor, a.SpillUS)
				cursor += a.SpillUS
			}
			if a.DrainUS > 0 {
				b.add(a.Resource, CompBatchDrain, cursor, a.DrainUS)
				cursor += a.DrainUS
			}
		}
		if done > cursor {
			// Tail wait after the last charged interval: queue wait for a
			// never-dispatched job (timeout/cancel/unschedulable), requeue
			// wait when aborted attempts preceded the deadline.
			kind := CompQueueWait
			if len(job.Attempts) > 0 {
				kind = CompRetryWait
			}
			b.add("sched", kind, cursor, done-cursor)
		}
	}

	if step != nil {
		// Scatter-gather merge: zero virtual time under the current merge
		// model (results merge at their shard completion stamp).
		b.add("router", CompMergeWait, done, 0)
	}
	return rt
}
