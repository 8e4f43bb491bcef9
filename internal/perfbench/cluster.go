package perfbench

import (
	"fmt"

	"fpgapart/cluster"
	"fpgapart/internal/faults"
	"fpgapart/internal/simtrace"
)

// The cluster suite benchmarks the sharded serving frontend end to end: a
// fixed open-loop request stream routed by the consistent-hash ring across
// three partserver shards, scatter-gathered back into one report. Every
// gated number — the avg/p95/p99 virtual-time latencies and QPS the tail
// gate pins, the moved-key fractions of a shard join (ring vs. modulo),
// quota throttling, failover reroutes, the merged output checksum — is a
// pure function of (code, seed), so any delta against the baseline is a
// true regression in routing, admission, failover, or merge behaviour.

// clusterRequests is the stream length of every cluster cell: long enough
// to spread across all shards and fill the latency tail, short enough for a
// CI gate.
const clusterRequests = 24

// clusterShards is the shard pool size of every cell.
const clusterShards = 3

// clusterScenario is one routing-tier cell.
type clusterScenario struct {
	label    string
	quota    int
	hot      float64
	gapUS    int64 // mean inter-arrival gap (0 = 80)
	scenario *faults.Scenario

	// schedule runs live membership churn; compareStatic additionally runs
	// the same stream on the static ring and gates checksum divergence (must
	// be 0: only moved keys re-route, content never changes).
	schedule      cluster.MembershipSchedule
	compareStatic bool

	// replicas/hedgeUS enable hedged reads; compareUnhedged additionally
	// runs the same stream unhedged and gates the p99 win (must be > 0:
	// hedging must strictly beat the straggler tail).
	replicas        int
	hedgeUS         int64
	compareUnhedged bool
}

// name is the record name of the scenario in the given suite.
func (sc clusterScenario) name(suite string) string {
	return fmt.Sprintf("%s/%ds1f1w/%dreq/%s", suite, clusterShards, clusterRequests, sc.label)
}

// load generates the scenario's request stream. Request sizes span
// cfg.Tuples/16 .. cfg.Tuples/4: small enough that three shards of one FPGA
// + one worker each stay CI-cheap, large enough that per-shard makespans
// dominate the router's bookkeeping.
func (sc clusterScenario) load(cfg Config) ([]cluster.Request, error) {
	gap := sc.gapUS
	if gap == 0 {
		gap = 80
	}
	return cluster.GenerateLoad(uint64(cfg.Seed), clusterRequests, cluster.LoadOptions{
		HotTenantShare: sc.hot,
		MeanGapUS:      gap,
		MinTuples:      cfg.Tuples / 16,
		MaxTuples:      cfg.Tuples / 4,
	})
}

// config is the scenario's router configuration, with no telemetry attached.
func (sc clusterScenario) config(cfg Config) cluster.Config {
	return cluster.Config{
		Shards:      clusterShards,
		TenantQuota: sc.quota,
		Schedule:    sc.schedule,
		Replicas:    sc.replicas,
		HedgeUS:     sc.hedgeUS,
		Seed:        uint64(cfg.Seed),
		Faults:      sc.scenario,
	}
}

// clusterScenarios is the cluster suite's matrix; the reqtrace suite reruns
// its first three cells with a capture attached.
func clusterScenarios(cfg Config) []clusterScenario {
	return []clusterScenario{
		// Plain routing and merge: the latency/QPS/balance baseline.
		{label: "faultfree"},
		// A hot tenant issuing 40% of the stream under a per-window quota:
		// gates the throttle counters and the tail the quota stretches.
		{label: "hottenant", quota: 2, hot: 0.4},
		// A shard fail-stopping mid-stream: gates the failover reroutes and
		// the survivors' makespans.
		{label: "faulty", scenario: &faults.Scenario{
			Seed:    uint64(cfg.Seed),
			Crashes: []faults.Crash{{Node: 1, AfterFraction: 0.4}},
		}},
		// Shard 3 joining live mid-stream: gates the moved-key permyriad of
		// the join (ring bound: ≤ 2/(N+1) of keys at N=3) and pins zero
		// checksum divergence against the static ring — live migration
		// re-routes only moved keys and never changes content.
		{label: "livejoin",
			schedule:      cluster.MembershipSchedule{{AtUS: 800, Shard: clusterShards, Kind: cluster.Join}},
			compareStatic: true},
		// Shard 1's FPGA straggling 8×: the unhedged tail baseline.
		{label: "straggler", gapUS: 20, scenario: &faults.Scenario{
			Seed:       uint64(cfg.Seed),
			Stragglers: []faults.Straggler{{Node: 1, Factor: 8}},
		}},
		// The same straggler with R=2 hedged reads at a fixed 150 µs
		// deadline: gates the hedge counters and the strict p99 win over the
		// unhedged run of the identical stream.
		{label: "straggler-hedged", gapUS: 20,
			scenario: &faults.Scenario{
				Seed:       uint64(cfg.Seed),
				Stragglers: []faults.Straggler{{Node: 1, Factor: 8}},
			},
			replicas: 2, hedgeUS: 150, compareUnhedged: true},
	}
}

func clusterCells(cfg Config) ([]cell, error) {
	var cells []cell
	for _, sc := range clusterScenarios(cfg) {
		cells = append(cells, cell{sc.name(SuiteCluster), func() (simtrace.Snapshot, error) { return runClusterScenario(cfg, sc) }})
	}
	return cells, nil
}

func runClusterScenario(cfg Config, sc clusterScenario) (simtrace.Snapshot, error) {
	reqs, err := sc.load(cfg)
	if err != nil {
		return nil, err
	}

	sess := simtrace.NewSession()
	ccfg := sc.config(cfg)
	ccfg.Trace = sess

	rep, err := cluster.Run(reqs, ccfg)
	if err != nil {
		return nil, err
	}
	if rep.Done != clusterRequests {
		return nil, fmt.Errorf("only %d/%d requests done (failed %d, failed shards %v)",
			rep.Done, clusterRequests, rep.Failed, rep.FailedShards)
	}

	// The session snapshot already carries the router's full telemetry —
	// cluster.lat_{avg,p95,p99}_us, qps_x100, the latency histogram, the
	// moved-key fractions, throttle/reroute counters, per-shard jobs and
	// makespans, the merged output checksum, and (on dynamic cells) the
	// membership/handoff/hedge counters. Add the load-balance spread an
	// operator would watch: busiest shard's share of the stream, ×100.
	var maxJobs int
	for _, n := range rep.ShardJobs {
		if n > maxJobs {
			maxJobs = n
		}
	}
	extra := []simtrace.Metric{
		counter("bench.max_shard_share_x100", int64(maxJobs)*100/int64(rep.Requests)),
	}

	if sc.compareStatic {
		// Live churn vs. the static ring on the identical stream: the join
		// may move at most ≈ 2/(N+1) of the keys and must never change the
		// merged content. Both pinned: the moved permyriad as a gated number,
		// the divergence as a hard error plus a pinned zero.
		static := sc.config(cfg)
		static.Schedule = nil
		srep, err := cluster.Run(reqs, static)
		if err != nil {
			return nil, fmt.Errorf("static reference: %w", err)
		}
		if len(rep.EventMovedX10000) == 0 || rep.EventMovedX10000[0] > 2*10000/int64(clusterShards+1) {
			return nil, fmt.Errorf("live join moved %v permyriad, over the 2/(N+1) ring bound", rep.EventMovedX10000)
		}
		var div int64
		if rep.Checksum != srep.Checksum || rep.Matches != srep.Matches || rep.Done != srep.Done {
			div = 1
		}
		if div != 0 {
			return nil, fmt.Errorf("live join diverged from static ring: checksum %d vs %d, matches %d vs %d",
				rep.Checksum, srep.Checksum, rep.Matches, srep.Matches)
		}
		extra = append(extra, counter("bench.checksum_divergence", div))
	}

	if sc.compareUnhedged {
		// Hedged vs. unhedged on the identical stream and straggler: the
		// whole point of the hedge lane is a strictly better p99. The win is
		// an in-code assertion and a pinned gated number.
		unhedged := sc.config(cfg)
		unhedged.Replicas = 0
		unhedged.HedgeUS = 0
		urep, err := cluster.Run(reqs, unhedged)
		if err != nil {
			return nil, fmt.Errorf("unhedged reference: %w", err)
		}
		win := urep.LatP99US - rep.LatP99US
		if win <= 0 {
			return nil, fmt.Errorf("hedged p99 %dus not below unhedged p99 %dus", rep.LatP99US, urep.LatP99US)
		}
		if rep.Checksum != urep.Checksum {
			return nil, fmt.Errorf("hedging changed the checksum: %d vs %d", rep.Checksum, urep.Checksum)
		}
		extra = append(extra, counter("bench.hedge_p99_win_us", win))
	}

	return sess.Metrics.Snapshot().With(extra...), nil
}
