// Command cluster runs the sharded serving frontend over a deterministic
// open-loop request stream: a consistent-hash ring routes tenant requests
// across N partserver shards, results scatter-gather back into one report,
// and the latency distribution (avg/p95/p99, QPS) comes off the shared
// virtual clock.
//
// Usage:
//
//	cluster run -requests 64 -shards 3 -seed 7
//	cluster run -requests 128 -hot 0.5 -quota 2 -faulty -report rep.json
//	cluster run -requests 96 -schedule "join:3@4000,drain:1@9000"
//	cluster run -requests 96 -replicas 2 -hedge-us 400 -straggler 1:8
//
// The same flags always produce byte-identical routing decisions, reports,
// traces and metrics; -report writes the full per-request report JSON,
// -trace the Chrome trace-event timeline, -metrics the counter snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpgapart/cluster"
	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "run" {
		usage()
		os.Exit(2)
	}
	runCmd(os.Args[2:])
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  cluster run [-requests n] [-shards n] [-vnodes n] [-fpgas n] [-workers n]
              [-seed n] [-tenants n] [-hot frac] [-quota n] [-window us]
              [-gap us] [-schedule events] [-replicas n] [-hedge-us us]
              [-straggler shard:factor] [-faulty] [-report file]
              [-trace file] [-metrics file] [-reqtrace file] [-flight file] [-v]

  -schedule is a comma-separated membership churn plan of
  "<join|drain>:<shard>@<at_us>" events, e.g. "join:3@4000,drain:1@9000".
  -hedge-us enables hedged reads (needs -replicas >= 2): a positive value is
  a fixed virtual deadline, -1 tracks the running p95.
`)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("cluster run", flag.ExitOnError)
	var (
		requests = fs.Int("requests", 64, "number of requests in the generated stream")
		shards   = fs.Int("shards", 3, "partserver shards behind the ring")
		vnodes   = fs.Int("vnodes", 128, "virtual nodes per shard on the ring")
		fpgas    = fs.Int("fpgas", 1, "simulated FPGA instances per shard")
		workers  = fs.Int("workers", 1, "CPU partitioner workers per shard")
		seed     = fs.Uint64("seed", 7, "ring + stream + shard-scheduler seed")
		tenants  = fs.Int("tenants", 8, "number of tenants issuing requests")
		hot      = fs.Float64("hot", 0, "fraction of the stream issued by hot tenant 0")
		quota    = fs.Int("quota", 0, "per-tenant admitted requests per window (0 = no quota)")
		window   = fs.Int64("window", 0, "admission window in µs (0 = default 1000)")
		gap      = fs.Int64("gap", 0, "mean virtual inter-arrival gap in µs (0 = default 200)")
		schedule = fs.String("schedule", "", "membership churn plan: comma-separated <join|drain>:<shard>@<at_us> events")
		replicas = fs.Int("replicas", 0, "replica-set width R (0 = default 1; hedging needs >= 2)")
		hedgeUS  = fs.Int64("hedge-us", 0, "hedged-read deadline in µs (>0 fixed, -1 running p95, 0 off)")
		strag    = fs.String("straggler", "", "straggle one shard: <shard>:<factor>, e.g. 1:8")
		faulty   = fs.Bool("faulty", false, "fail-stop shard 1 after 40% of its share; requests fail over clockwise")
		report   = fs.String("report", "", "write the full request-level report (JSON) to this file")
		verbose  = fs.Bool("v", false, "print one line per request")
		art      reqtrace.Artifacts
	)
	art.TraceFlags(fs)
	art.CaptureFlags(fs)
	fs.Parse(args)

	reqs, err := cluster.GenerateLoad(*seed, *requests, cluster.LoadOptions{
		Tenants:        *tenants,
		HotTenantShare: *hot,
		MeanGapUS:      *gap,
	})
	if err != nil {
		fatal(err)
	}
	sched, err := cluster.ParseMembershipSchedule(*schedule)
	if err != nil {
		fatal(err)
	}
	cfg := cluster.Config{
		Shards:        *shards,
		VNodes:        *vnodes,
		ShardFPGAs:    *fpgas,
		ShardWorkers:  *workers,
		TenantQuota:   *quota,
		QuotaWindowUS: *window,
		Schedule:      sched,
		Replicas:      *replicas,
		HedgeUS:       *hedgeUS,
		Seed:          *seed,
	}
	if *faulty {
		if *shards < 2 {
			fatal(fmt.Errorf("-faulty needs at least 2 shards to fail over to"))
		}
		cfg.Faults = &faults.Scenario{
			Seed:    *seed,
			Crashes: []faults.Crash{{Node: 1, AfterFraction: 0.4}},
		}
	}
	if *strag != "" {
		st, err := faults.ParseStraggler(*strag)
		if err != nil {
			fatal(fmt.Errorf("-straggler: %w", err))
		}
		if cfg.Faults == nil {
			cfg.Faults = &faults.Scenario{Seed: *seed}
		}
		cfg.Faults.Stragglers = append(cfg.Faults.Stragglers, st)
	}
	sess := simtrace.NewSession()
	cfg.Trace = sess
	capt := art.Capture()
	cfg.ReqTrace = capt

	rep, err := cluster.Run(reqs, cfg)
	if err != nil {
		// The capture's flight timeline survives the failure.
		fatal(art.Finish("cluster", "request", sess, capt, err))
	}

	if *verbose {
		for i := range rep.Results {
			r := &rep.Results[i]
			fmt.Printf("req %3d  tenant=%-3d shard=%-2d %-9s rerouted=%-5v throttled=%-5v lat=%6dus tuples=%7d checksum=%08x",
				r.Index, r.Tenant, r.Shard, r.Status, r.Rerouted, r.Throttled, r.LatencyUS, r.Tuples, r.Checksum)
			if r.Matches > 0 {
				fmt.Printf(" matches=%d", r.Matches)
			}
			fmt.Println()
		}
	}
	fmt.Printf("requests=%d done=%d failed=%d throttled=%d rerouted=%d failed_shards=%v\n",
		rep.Requests, rep.Done, rep.Failed, rep.Throttled, rep.Rerouted, rep.FailedShards)
	fmt.Printf("latency avg=%dus p50=%dus p95=%dus p99=%dus qps=%d.%02d\n",
		rep.LatAvgUS, rep.LatP50US, rep.LatP95US, rep.LatP99US,
		rep.QPSx100/100, rep.QPSx100%100)
	fmt.Printf("join of shard %d would move %d.%02d%% of keys (modulo baseline: %d.%02d%%)\n",
		*shards,
		rep.MovedRingX10000/100, rep.MovedRingX10000%100,
		rep.MovedModX10000/100, rep.MovedModX10000%100)
	for j := range rep.MembershipEvents {
		ev := &rep.MembershipEvents[j]
		fmt.Printf("membership: %s shard %d at %dus moved %d.%02d%% of keys\n",
			ev.Kind, ev.Shard, ev.AtUS,
			rep.EventMovedX10000[j]/100, rep.EventMovedX10000[j]%100)
	}
	if rep.HandoffDelayed > 0 {
		fmt.Printf("handoff: %d requests waited %dus total behind drain barriers\n",
			rep.HandoffDelayed, rep.HandoffWaitUS)
	}
	if rep.HedgedRun {
		fmt.Printf("hedging: issued=%d won=%d cancelled=%d saved=%dus wasted=%dus\n",
			rep.HedgeIssued, rep.HedgeWon, rep.HedgeCancelled, rep.HedgeSavedUS, rep.HedgeWastedUS)
	}
	for s := range rep.ShardJobs {
		fmt.Printf("shard %d: jobs=%d makespan=%dus\n", s, rep.ShardJobs[s], rep.ShardMakespanUS[s])
	}

	if *report != "" {
		if err := simtrace.WriteFile(*report, rep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *report)
	}
	if err := art.Finish("cluster", "request", sess, capt, nil); err != nil {
		fatal(err)
	}
}

// fatal prints err after the command name, once: errors from the cluster
// package already begin with it.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cluster:", strings.TrimPrefix(err.Error(), "cluster: "))
	os.Exit(1)
}
