package reqtrace

import (
	"fmt"
	"sort"
	"strings"
)

// CompStat aggregates one component across a run: total virtual time and
// exact nearest-rank percentiles over the per-request values (zeros
// included, so a component a request never touched counts as 0 for it).
type CompStat struct {
	TotalUS             int64
	P50US, P95US, P99US int64
}

// PathProfile is one critical-path signature's aggregate.
type PathProfile struct {
	// Signature is the ">"-joined component sequence (PathSignature).
	Signature string
	// Count is how many requests took this path; TotalUS their summed
	// latency — the profile's ranking key.
	Count   int
	TotalUS int64
}

// Profile is a run's aggregated critical-path analysis.
type Profile struct {
	// Requests counts analyzed requests (unrouted requests are skipped);
	// TotalUS sums their latencies.
	Requests int
	TotalUS  int64
	// Violations counts requests whose decomposition does not sum to their
	// latency — always 0 unless the scheduler hooks drift from the charged
	// intervals; gated at 0 in the perfbench suite.
	Violations int
	// Comp holds per-component totals and percentiles.
	Comp [NumComponents]CompStat
	// Paths are the top-K critical-path signatures by total virtual time
	// (ties break lexicographically), most expensive first.
	Paths []PathProfile
	// TailCutUS is the p99 latency; TailShareX100 attributes the latency
	// of requests at or above the cut to components, in percent ×100 of
	// the cohort's total latency.
	TailCutUS     int64
	TailRequests  int
	TailShareX100 [NumComponents]int64
}

// Analyze aggregates a run's request traces into a critical-path profile,
// keeping the topK most expensive path signatures. Deterministic: sorted
// copies, explicit tie-breaks, no map iteration.
func Analyze(traces []RequestTrace, topK int) *Profile {
	p := &Profile{}
	if topK <= 0 {
		topK = 3
	}

	lats := make([]int64, 0, len(traces))
	perComp := make([][]int64, NumComponents)
	pathIdx := make(map[string]int)
	var paths []PathProfile
	for i := range traces {
		rt := &traces[i]
		if rt.Status == "unrouted" {
			continue
		}
		p.Requests++
		p.TotalUS += rt.LatencyUS
		if !rt.Conserved() {
			p.Violations++
		}
		lats = append(lats, rt.LatencyUS)
		for c := 0; c < NumComponents; c++ {
			p.Comp[c].TotalUS += rt.Breakdown[c]
			perComp[c] = append(perComp[c], rt.Breakdown[c])
		}
		sig := rt.PathSignature()
		k, ok := pathIdx[sig]
		if !ok {
			k = len(paths)
			pathIdx[sig] = k
			paths = append(paths, PathProfile{Signature: sig})
		}
		paths[k].Count++
		paths[k].TotalUS += rt.LatencyUS
	}
	if p.Requests == 0 {
		return p
	}

	for c := 0; c < NumComponents; c++ {
		vals := perComp[c]
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		p.Comp[c].P50US = NearestRank(vals, 50)
		p.Comp[c].P95US = NearestRank(vals, 95)
		p.Comp[c].P99US = NearestRank(vals, 99)
	}

	sort.Slice(paths, func(a, b int) bool {
		if paths[a].TotalUS != paths[b].TotalUS {
			return paths[a].TotalUS > paths[b].TotalUS
		}
		return paths[a].Signature < paths[b].Signature
	})
	if len(paths) > topK {
		paths = paths[:topK]
	}
	p.Paths = paths

	// Tail attribution: the component mix of requests at or above the p99
	// latency — "p99 requests spend N% in queue wait".
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	p.TailCutUS = NearestRank(lats, 99)
	var tailTotal int64
	var tailComp [NumComponents]int64
	for i := range traces {
		rt := &traces[i]
		if rt.Status == "unrouted" || rt.LatencyUS < p.TailCutUS {
			continue
		}
		p.TailRequests++
		tailTotal += rt.LatencyUS
		for c := 0; c < NumComponents; c++ {
			tailComp[c] += rt.Breakdown[c]
		}
	}
	if tailTotal > 0 {
		for c := 0; c < NumComponents; c++ {
			p.TailShareX100[c] = tailComp[c] * 10000 / tailTotal
		}
	}
	return p
}

// NearestRank returns the exact nearest-rank q-th percentile of sorted
// (ascending) values, 0 when empty.
func NearestRank(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*q + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Format renders the profile as a deterministic text report: per-component
// totals and percentiles, the top critical paths, and the p99 tail mix.
func (p *Profile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reqtrace: %d requests, %d us total latency", p.Requests, p.TotalUS)
	if p.Violations > 0 {
		fmt.Fprintf(&b, ", %d CONSERVATION VIOLATIONS", p.Violations)
	}
	b.WriteString("\n")
	if p.Requests == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %12s %8s %10s %10s %10s\n",
		"component", "total_us", "share", "p50_us", "p95_us", "p99_us")
	for c := 0; c < NumComponents; c++ {
		st := &p.Comp[c]
		if st.TotalUS == 0 && st.P99US == 0 {
			continue
		}
		share := int64(0)
		if p.TotalUS > 0 {
			share = st.TotalUS * 10000 / p.TotalUS
		}
		fmt.Fprintf(&b, "%-12s %12d %5d.%02d%% %10d %10d %10d\n",
			Component(c).String(), st.TotalUS, share/100, share%100,
			st.P50US, st.P95US, st.P99US)
	}
	fmt.Fprintf(&b, "critical paths (top %d by total virtual time):\n", len(p.Paths))
	for i := range p.Paths {
		pp := &p.Paths[i]
		share := int64(0)
		if p.TotalUS > 0 {
			share = pp.TotalUS * 10000 / p.TotalUS
		}
		fmt.Fprintf(&b, "  %5d.%02d%%  %4dx  %s\n", share/100, share%100, pp.Count, pp.Signature)
	}
	fmt.Fprintf(&b, "p99 tail (latency >= %d us, %d requests):", p.TailCutUS, p.TailRequests)
	first := true
	for c := 0; c < NumComponents; c++ {
		if p.TailShareX100[c] == 0 {
			continue
		}
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, " %s %d.%02d%%", Component(c).String(),
			p.TailShareX100[c]/100, p.TailShareX100[c]%100)
	}
	b.WriteString("\n")
	return b.String()
}
