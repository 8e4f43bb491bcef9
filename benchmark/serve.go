package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"fpgapart/cluster"
	"fpgapart/hashjoin"
	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/partserver"
	"fpgapart/workload"
)

const serveShards = 3

// serveState is what a serving workload keeps between rounds and finish.
type serveState struct {
	reqs   []cluster.Request
	cfg    cluster.Config
	load   cluster.LoadOptions
	tuples int64
	rep    *cluster.Report      // last verified report
	shards []*partserver.Report // last shadow partserver reports
	comp   [reqtrace.NumComponents]int64
	viol   int
}

func setupServeSteady(seed int64, sc scale, traced bool) (*bench, error) {
	load := cluster.LoadOptions{MinTuples: 64, MaxTuples: 256, MeanGapUS: 8}
	return setupServe("serve_steady", "n3", seed, sc.steadyReqs, load, traced,
		func([]cluster.Request) cluster.Config {
			return cluster.Config{Shards: serveShards, Seed: uint64(seed)}
		})
}

func setupServeChurn(seed int64, sc scale, traced bool) (*bench, error) {
	load := cluster.LoadOptions{MinTuples: 64, MaxTuples: 256, MeanGapUS: 8, HotTenantShare: 0.3}
	return setupServe("serve_churn", "churn3", seed, sc.churnReqs, load, traced,
		func(reqs []cluster.Request) cluster.Config {
			last := reqs[len(reqs)-1].Job.ArrivalUS
			return cluster.Config{
				Shards: serveShards,
				Seed:   uint64(seed),
				Schedule: cluster.MembershipSchedule{
					{AtUS: last / 4, Shard: 3, Kind: cluster.Join},
					{AtUS: last / 2, Shard: 1, Kind: cluster.Drain},
					{AtUS: 3 * last / 4, Shard: 4, Kind: cluster.Join},
				},
				Replicas:    2,
				HedgeUS:     cluster.HedgeAuto,
				TenantQuota: 8,
				Faults: &faults.Scenario{
					Seed:       uint64(seed),
					Crashes:    []faults.Crash{{Node: 2, AfterFraction: 0.6}},
					Stragglers: []faults.Straggler{{Node: 0, Factor: 8}},
				},
			}
		})
}

func setupServe(name, className string, seed int64, n int, load cluster.LoadOptions, traced bool,
	config func([]cluster.Request) cluster.Config) (*bench, error) {
	st := &serveState{load: load}
	t0 := time.Now()
	reqs, err := cluster.GenerateLoad(uint64(seed), n, load)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	st.reqs, st.cfg = reqs, config(reqs)
	jobs := make([]partserver.Job, n)
	for i, r := range reqs {
		jobs[i] = r.Job
		st.tuples += int64(r.Job.Rel.NumTuples)
		if r.Job.Probe != nil {
			st.tuples += int64(r.Job.Probe.NumTuples)
		}
	}

	// Reference: one scheduler over all jobs, no routing tier.
	ref, err := partserver.Run(jobs, partserver.Config{Seed: uint64(seed)})
	if err != nil {
		return nil, fmt.Errorf("reference partserver run: %w", err)
	}
	var refChecksum uint32
	var refMatches int64
	for _, jr := range ref.Results {
		if jr.Status != partserver.StatusDone {
			return nil, fmt.Errorf("reference job %d ended %v", jr.ID, jr.Status)
		}
		refChecksum += jr.Checksum
		refMatches += jr.Matches
	}

	c := &class{name: className, fn: "cluster.Run", tuples: st.tuples}
	c.op = func() (any, error) { return cluster.Run(st.reqs, st.cfg) }
	c.check = func(out any) ([]simStat, error) {
		rep := out.(*cluster.Report)
		if rep.Requests != n || rep.Done != n || rep.Failed != 0 {
			return nil, fmt.Errorf("%d requests, %d done, %d failed; want all %d done", rep.Requests, rep.Done, rep.Failed, n)
		}
		for _, rr := range rep.Results {
			if rr.Status != partserver.StatusDone {
				return nil, fmt.Errorf("request %d ended %v", rr.Index, rr.Status)
			}
		}
		if rep.Checksum != refChecksum || rep.Matches != refMatches {
			return nil, fmt.Errorf("checksum/matches %#x/%d, single-scheduler reference %#x/%d",
				rep.Checksum, rep.Matches, refChecksum, refMatches)
		}
		st.rep = rep
		return reportStats(rep), nil
	}
	if traced {
		c.traced = st.tracedHook(seed)
	}
	wl := &bench{name: name, classes: []*class{c}, genS: genS, genTuples: st.tuples}
	wl.finish = func(run *runState) error { return st.finish(run, name == "serve_steady") }
	return wl, nil
}

// reportStats lists a cluster report's virtual-time statistics.
func reportStats(rep *cluster.Report) []simStat {
	return []simStat{
		{"makespan_us", rep.MakespanUS}, {"lat_avg_us", rep.LatAvgUS}, {"lat_p50_us", rep.LatP50US},
		{"lat_p99_us", rep.LatP99US}, {"checksum", int64(rep.Checksum)}, {"matches", rep.Matches},
		{"throttled", int64(rep.Throttled)}, {"throttle_delay_us", rep.ThrottleDelayUS},
		{"rerouted", int64(rep.Rerouted)}, {"hedge_issued", int64(rep.HedgeIssued)},
		{"hedge_won", int64(rep.HedgeWon)}, {"hedge_cancelled", int64(rep.HedgeCancelled)},
		{"hedge_saved_us", rep.HedgeSavedUS}, {"hedge_wasted_us", rep.HedgeWastedUS},
		{"handoff_delayed", int64(rep.HandoffDelayed)}, {"handoff_wait_us", rep.HandoffWaitUS},
		{"max_shard_jobs", int64(slices.Max(rep.ShardJobs))},
	}
}

// tracedHook builds the traced hook of a serving class: the run again with
// simtrace and reqtrace attached, then shadows of the layers below it on the
// same stream — one scheduler per shard of the initial ring, and the jobs'
// raw work with no scheduler at all.
func (st *serveState) tracedHook(seed int64) func(*tracer, int) error {
	ids := make([]int, serveShards)
	for i := range ids {
		ids[i] = i
	}
	return func(tr *tracer, parent int) error {
		capt := &reqtrace.Capture{}
		tcfg := st.cfg
		tcfg.Trace, tcfg.ReqTrace = simtrace.NewSession(), capt
		if err := tr.shadow(parent, "cluster.Run+trace", func() error {
			_, err := cluster.Run(st.reqs, tcfg)
			return err
		}); err != nil {
			return err
		}
		prof := reqtrace.Analyze(capt.Traces, 0)
		var comp [reqtrace.NumComponents]int64
		for i := range comp {
			comp[i] = prof.Comp[i].TotalUS
		}
		if tr.best("", "cluster.Run+trace").n > 1 && (comp != st.comp || prof.Violations != st.viol) {
			return fmt.Errorf("reqtrace totals differ between rounds: %v vs %v", comp, st.comp)
		}
		st.comp, st.viol = comp, prof.Violations

		perShard := make([][]partserver.Job, serveShards)
		if err := tr.shadow(parent, "cluster.Ring.Shard", func() error {
			ring, err := cluster.NewRing(ids, st.cfg.WithDefaults().VNodes)
			if err != nil {
				return err
			}
			for _, r := range st.reqs {
				s := ring.Shard(r.Key)
				perShard[s] = append(perShard[s], r.Job)
			}
			return nil
		}); err != nil {
			return err
		}
		st.shards = st.shards[:0]
		if err := tr.shadow(parent, "partserver.Run", func() error {
			for s, jobs := range perShard {
				rep, err := partserver.Run(jobs, partserver.Config{FPGAs: 1, Workers: 1, Seed: uint64(seed) + uint64(s) + 1})
				if err != nil {
					return err
				}
				st.shards = append(st.shards, rep)
			}
			return nil
		}); err != nil {
			return err
		}
		err := tr.shadow(parent, "jobs.exec", func() error { return execJobs(perShard, st.shards) })
		return err
	}
}

// execJobs does the stream's raw work through package partition and
// hashjoin, on the backend the shadow scheduler placed each job on, reusing
// one partitioner per configuration as a scheduler's workers do.
func execJobs(perShard [][]partserver.Job, reports []*partserver.Report) error {
	type key struct {
		fpga   bool
		fan    int
		hash   bool
		format partition.Format
		layout partition.Layout
	}
	cache := map[key]partition.Partitioner{}
	for s, jobs := range perShard {
		for i, j := range jobs {
			k := key{fpga: reports[s].Results[i].Placement == partserver.PlacedFPGA && !reports[s].Results[i].Degraded,
				fan: j.FanOut, hash: j.Hash}
			if k.fpga {
				k.format, k.layout = j.Format, j.Layout
			}
			p, ok := cache[k]
			if !ok {
				var err error
				if k.fpga {
					p, err = partition.NewFPGA(partition.FPGAOptions{Partitions: j.FanOut, Hash: j.Hash,
						Format: j.Format, Layout: j.Layout, FallbackThreads: 1})
				} else {
					p, err = partition.NewCPU(partition.CPUOptions{Partitions: j.FanOut, Hash: j.Hash, Threads: 1})
				}
				if err != nil {
					return err
				}
				cache[k] = p
			}
			rel, probe := j.Rel, j.Probe
			if !k.fpga && j.Layout == partition.ColumnStore {
				// The CPU partitioner reads rows; a degraded column job is
				// materialised as <key, VRID> rows, as the fallback does.
				var err error
				if rel, err = rowsOf(rel); err != nil {
					return err
				}
				if probe != nil {
					if probe, err = rowsOf(probe); err != nil {
						return err
					}
				}
			}
			var err error
			if probe == nil {
				_, err = p.Partition(rel)
			} else {
				_, err = hashjoin.Join(rel, probe, p, hashjoin.Options{Partitions: j.FanOut, Threads: 1,
					Hash: j.Hash, MemoryBudgetBytes: j.MemoryBudgetBytes})
			}
			if err != nil {
				return fmt.Errorf("shard %d job %d: %w", s, i, err)
			}
		}
	}
	return nil
}

// rowsOf returns rel as 8-byte rows: itself, or <key, VRID> rows of a column.
func rowsOf(rel *workload.Relation) (*workload.Relation, error) {
	if rel.Layout == workload.RowLayout {
		return rel, nil
	}
	return workload.FromKeys(rel.Keys, 8)
}

func (st *serveState) finish(run *runState, steady bool) error {
	rep, n := st.rep, float64(len(st.reqs))
	if rep == nil {
		return fmt.Errorf("no verified report")
	}
	if steady {
		e := run.res.EndToEnd
		e.set("sim_p50_us", float64(rep.LatP50US))
		e.set("sim_p99_us", float64(rep.LatP99US))
		e.set("sim_kqps", 1e3*float64(rep.Done)/float64(rep.MakespanUS))
	}
	if !run.traced {
		return nil
	}
	l, tr := run.res.Layers, run.tr
	for name, v := range map[string]float64{
		"cluster.throttled": float64(rep.Throttled), "cluster.throttle_delay_us": float64(rep.ThrottleDelayUS),
		"cluster.rerouted": float64(rep.Rerouted), "cluster.hedge_issued": float64(rep.HedgeIssued),
		"cluster.hedge_won": float64(rep.HedgeWon), "cluster.hedge_cancelled": float64(rep.HedgeCancelled),
		"cluster.hedge_saved_us": float64(rep.HedgeSavedUS), "cluster.hedge_wasted_us": float64(rep.HedgeWastedUS),
		"cluster.handoff_delayed": float64(rep.HandoffDelayed), "cluster.handoff_wait_us": float64(rep.HandoffWaitUS),
		"cluster.max_shard_share_x100": 100 * float64(slices.Max(rep.ShardJobs)) / n,
		"cluster.sim_p50_us":           float64(rep.LatP50US), "cluster.sim_p99_us": float64(rep.LatP99US),
	} {
		l.set(name, v)
	}
	for c, total := range st.comp {
		if name := "reqtrace." + reqtrace.Component(c).String() + "_us"; name != "reqtrace.merge_wait_us" {
			l.set(name, float64(total))
		}
	}
	l.set("reqtrace.conservation_violations", float64(st.viol))

	var placedFPGA, placedCPU, degraded, attempts, queueUS, execUS int64
	for _, sr := range st.shards {
		placedFPGA += int64(sr.PlacedFPGA)
		placedCPU += int64(sr.PlacedCPU)
		degraded += int64(sr.Degraded)
		for _, jr := range sr.Results {
			attempts += int64(jr.Attempts)
			queueUS += jr.QueueWaitUS
			execUS += jr.ExecUS
		}
	}
	l.set("partserver.placed_fpga", float64(placedFPGA))
	l.set("partserver.placed_cpu", float64(placedCPU))
	l.set("partserver.degraded", float64(degraded))
	l.set("partserver.attempts", float64(attempts))
	l.set("partserver.queue_wait_us_total", float64(queueUS))
	l.set("partserver.exec_us_total", float64(execUS))

	clusterRun, sched, exec := tr.best("", "cluster.Run"), tr.best("", "partserver.Run"), tr.best("", "jobs.exec")
	l.set("jobs.exec_cpu_ms", 1e3*exec.cpuS)
	l.set("partserver.run_cpu_ms", 1e3*sched.cpuS)
	l.set("partserver.self_cpu_ms", 1e3*(sched.cpuS-exec.cpuS))
	l.set("partserver.us_per_job", 1e6*sched.wallS/n)
	l.set("partserver.alloc_bytes_per_job", sched.allocBytes/n)
	l.set("cluster.run_cpu_ms", 1e3*clusterRun.cpuS)
	l.set("cluster.self_cpu_ms", 1e3*(clusterRun.cpuS-sched.cpuS))
	l.set("cluster.exec_amplification", clusterRun.cpuS/exec.cpuS)
	l.set("cluster.ring_lookup_ns", 1e9*tr.best("", "cluster.Ring.Shard").wallS/n)
	l.set("cluster.alloc_bytes_per_request", float64(run.allocBytes)/float64(run.res.Attempted)/n)
	l.set("harness.trace_overhead_pct", 100*(tr.best("", "cluster.Run+trace").wallS/clusterRun.wallS-1))

	t0 := time.Now()
	if _, err := cluster.GenerateLoad(uint64(run.seed), len(st.reqs), st.load); err != nil {
		return err
	}
	l.set("cluster.generate_load_ms", 1e3*time.Since(t0).Seconds())

	// What a finished run keeps alive per request: heap in use after a
	// forced collection with only the Report reachable.
	st.rep = nil
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	kept, err := cluster.Run(st.reqs, st.cfg)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(kept)
	l.set("cluster.retained_bytes_per_request", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/n)
	return nil
}
