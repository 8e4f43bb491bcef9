package cluster

import (
	"fmt"

	"fpgapart/internal/hashutil"
	"fpgapart/partserver"
)

// LoadOptions shapes GenerateLoad's synthetic open-loop request stream.
type LoadOptions struct {
	// Tenants is how many tenants issue requests (default 8).
	Tenants int
	// HotTenantShare, when > 0, routes that fraction of the stream to
	// tenant 0 — the hot tenant the admission quota is meant to contain.
	HotTenantShare float64
	// MeanGapUS is the mean virtual inter-arrival gap of the open-loop
	// arrival process (default 200); arrivals never wait for completions.
	MeanGapUS int64
	// MinTuples/MaxTuples bound the per-request relation size (defaults
	// 1<<10 and 1<<13).
	MinTuples, MaxTuples int
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Tenants == 0 {
		o.Tenants = 8
	}
	if o.MeanGapUS == 0 {
		o.MeanGapUS = 200
	}
	if o.MinTuples == 0 {
		o.MinTuples = 1 << 10
	}
	if o.MaxTuples == 0 {
		o.MaxTuples = 1 << 13
	}
	return o
}

// GenerateLoad builds a deterministic open-loop request stream: n requests
// whose jobs come from partserver.GenerateTrace (hash-derived sizes,
// fan-outs and modes, a quarter of them joins) and whose arrivals, tenants
// and routing keys are hash-drawn here. Open loop means arrival times are
// fixed by the draw — a slow cluster does not slow the offered load, it
// grows the backlog, which is what pushes the tail percentiles the latency
// reporter pins.
// The same (seed, n, opts) always yields the same stream.
func GenerateLoad(seed uint64, n int, opts LoadOptions) ([]Request, error) {
	opts = opts.withDefaults()
	if opts.Tenants < 1 {
		return nil, fmt.Errorf("cluster: Tenants %d < 1", opts.Tenants)
	}
	if opts.HotTenantShare < 0 || opts.HotTenantShare > 1 {
		return nil, fmt.Errorf("cluster: HotTenantShare %v outside [0, 1]", opts.HotTenantShare)
	}
	// The trace checks the sizes and the gap; its arrivals are replaced below.
	jobs, err := partserver.GenerateTrace(seed, n, partserver.TraceOptions{
		MinTuples: opts.MinTuples,
		MaxTuples: opts.MaxTuples,
		MeanGapUS: opts.MeanGapUS,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Purposes ≥ 16 keep these draws disjoint from GenerateTrace's own
	// (same seed, purposes 1..10).
	const (
		purposeGap uint64 = 16 + iota
		purposeHot
		purposeTenant
		purposeKey
	)
	reqs := make([]Request, n)
	arrival := int64(0)
	for i := 0; i < n; i++ {
		draw := func(purpose uint64) uint64 {
			return hashutil.SplitMix64(seed ^ hashutil.SplitMix64(uint64(i)<<8|purpose))
		}
		tenant := 0
		hot := opts.HotTenantShare > 0 &&
			float64(draw(purposeHot)%1000)/1000 < opts.HotTenantShare
		if !hot {
			tenant = int(draw(purposeTenant) % uint64(opts.Tenants))
		}
		jobs[i].ArrivalUS = arrival
		reqs[i] = Request{
			Tenant: tenant,
			Key:    draw(purposeKey),
			Job:    jobs[i],
		}
		arrival += int64(draw(purposeGap) % uint64(2*opts.MeanGapUS+1))
	}
	return reqs, nil
}
