package cluster

import (
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/partserver"
)

// stragglerScenario slows every FPGA instance of shard 1 by 8× — the tail
// profile hedged reads exist to beat.
func stragglerScenario(seed uint64) *faults.Scenario {
	return &faults.Scenario{
		Seed:       seed,
		Stragglers: []faults.Straggler{{Node: 1, Factor: 8}},
	}
}

// hedgedLoad is a stream dense enough that the straggling shard builds a
// queue worth hedging around.
func hedgedLoad(t *testing.T, seed uint64, n int) []Request {
	t.Helper()
	reqs, err := GenerateLoad(seed, n, LoadOptions{MeanGapUS: 20})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestHedgedReadsPreserveOutput is the hedging safety property: across
// seeds, a hedged run must reproduce the unhedged run's merged Checksum,
// Matches and completion count exactly — a hedge recomputes identical
// content on a replica, it never changes what the tenant gets. Timing is
// another matter: hedges queue on the replica behind (and ahead of) its own
// primaries, so a request may finish later than it did unhedged; what must
// hold is that a winning hedge ran on another shard than its primary and
// that the wins add up to time saved.
func TestHedgedReadsPreserveOutput(t *testing.T) {
	for seed := seedFromName(t); seed < seedFromName(t)+5; seed++ {
		reqs := hedgedLoad(t, seed, 32)
		base := Config{Shards: 3, Seed: seed, Faults: stragglerScenario(seed)}
		unhedged, err := Run(reqs, base)
		if err != nil {
			t.Fatal(err)
		}
		hcfg := base
		hcfg.Replicas = 2
		hcfg.HedgeUS = 150
		hedged, err := Run(reqs, hcfg)
		if err != nil {
			t.Fatal(err)
		}
		if hedged.Checksum != unhedged.Checksum || hedged.Matches != unhedged.Matches || hedged.Done != unhedged.Done {
			t.Fatalf("seed %d: hedged run changed the merge: checksum %d/%d, matches %d/%d, done %d/%d",
				seed, hedged.Checksum, unhedged.Checksum, hedged.Matches, unhedged.Matches,
				hedged.Done, unhedged.Done)
		}
		for i := range hedged.Results {
			h, u := &hedged.Results[i], &unhedged.Results[i]
			if h.Checksum != u.Checksum || h.Matches != u.Matches {
				t.Errorf("seed %d request %d: hedged output %d/%d, unhedged %d/%d",
					seed, i, h.Checksum, h.Matches, u.Checksum, u.Matches)
			}
			if h.HedgeWon && h.HedgeShard == h.Shard {
				t.Errorf("seed %d request %d: hedge won on the primary shard %d itself", seed, i, h.Shard)
			}
		}
		if (hedged.HedgeWon > 0) != (hedged.HedgeSavedUS > 0) {
			t.Errorf("seed %d: %d winning hedges saved %dus", seed, hedged.HedgeWon, hedged.HedgeSavedUS)
		}
		checkParity(t, hedged, reqs, seed)
	}
}

// TestHedgedP99Win pins the hedging payoff at test scale: under the
// straggler profile, the hedged p99 must be strictly below the unhedged
// p99 of the identical stream (the perfbench straggler-hedged cell gates
// the same win as a pinned number).
func TestHedgedP99Win(t *testing.T) {
	seed := uint64(42)
	reqs := hedgedLoad(t, seed, 48)
	base := Config{Shards: 3, Seed: seed, Faults: stragglerScenario(seed)}
	unhedged, err := Run(reqs, base)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := base
	hcfg.Replicas = 2
	hcfg.HedgeUS = 150
	hedged, err := Run(reqs, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.HedgeIssued == 0 || hedged.HedgeWon == 0 {
		t.Fatalf("hedging idle under the straggler profile: issued %d, won %d",
			hedged.HedgeIssued, hedged.HedgeWon)
	}
	if hedged.LatP99US >= unhedged.LatP99US {
		t.Errorf("hedged p99 %dus not strictly below unhedged p99 %dus",
			hedged.LatP99US, unhedged.LatP99US)
	}
	if hedged.HedgeSavedUS <= 0 {
		t.Errorf("winning hedges saved %dus, want > 0", hedged.HedgeSavedUS)
	}
}

// TestHedgeAutoDeadline: the running-p95 deadline mode hedges only after
// hedgeMinSamples responses have completed, stays fully deterministic, and
// preserves the merge like the fixed mode.
func TestHedgeAutoDeadline(t *testing.T) {
	seed := seedFromName(t)
	reqs := hedgedLoad(t, seed, 48)
	cfg := Config{Shards: 3, Replicas: 2, HedgeUS: HedgeAuto, Seed: seed, Faults: stragglerScenario(seed)}
	rep, err := Run(reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		rr := &rep.Results[i]
		if !rr.Hedged {
			continue
		}
		// Count the completed-by-admission samples the estimator saw; a
		// hedge before hedgeMinSamples of them would be an untrustworthy
		// estimate acted upon.
		samples := 0
		for k := range rep.Results {
			// The unhedged completion of request k is not in the report once
			// a hedge won it, so bound the check to non-hedged peers.
			if !rep.Results[k].Hedged && rep.Results[k].Status == partserver.StatusDone &&
				rep.Results[k].DoneUS <= rr.AdmitUS {
				samples++
			}
		}
		if samples+rep.HedgeIssued < hedgeMinSamples {
			t.Errorf("request %d hedged with at most %d completed samples, floor %d",
				i, samples+rep.HedgeIssued, hedgeMinSamples)
		}
	}
	checkParity(t, rep, reqs, seed)

	again, err := Run(reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.HedgeIssued != rep.HedgeIssued || again.HedgeWon != rep.HedgeWon ||
		again.Checksum != rep.Checksum || again.LatP99US != rep.LatP99US {
		t.Errorf("HedgeAuto run not reproducible: issued %d/%d won %d/%d checksum %d/%d p99 %d/%d",
			again.HedgeIssued, rep.HedgeIssued, again.HedgeWon, rep.HedgeWon,
			again.Checksum, rep.Checksum, again.LatP99US, rep.LatP99US)
	}
}

// TestHedgeConfigValidation pins the hedging knob legality.
func TestHedgeConfigValidation(t *testing.T) {
	reqs := hedgedLoad(t, 1, 4)
	if _, err := Run(reqs, Config{Shards: 3, HedgeUS: 100}); err == nil {
		t.Error("HedgeUS without Replicas ≥ 2 accepted")
	}
	if _, err := Run(reqs, Config{Shards: 3, Replicas: 2, HedgeUS: -2}); err == nil {
		t.Error("HedgeUS -2 accepted")
	}
	if _, err := Run(reqs, Config{Shards: 3, Replicas: -1}); err == nil {
		t.Error("negative Replicas accepted")
	}
	if _, err := Run(reqs, Config{Shards: 3, Replicas: 2, HedgeUS: HedgeAuto}); err != nil {
		t.Errorf("HedgeAuto rejected: %v", err)
	}
	// Replicas beyond the pool size is legal: the replica set clamps to the
	// whole membership (R-distinctness even when N ≤ R).
	if _, err := Run(reqs, Config{Shards: 2, Replicas: 5, HedgeUS: 100}); err != nil {
		t.Errorf("Replicas > Shards rejected: %v", err)
	}
}

// TestHedgeTargetAllocatesNothing: picking a hedge's replica walks the
// key's replica set in a slice the run keeps, so a hedge decision makes no
// heap object. The run is shaped like the benchmark's serve_churn: three
// shards, two joins and a drain, two replicas, auto hedging, a tenant quota
// and a shard that crashes; every request is asked for a hedge target at
// its admission, mid-run and at the end.
func TestHedgeTargetAllocatesNothing(t *testing.T) {
	reqs, err := GenerateLoad(7, 400, LoadOptions{MinTuples: 64, MaxTuples: 256, MeanGapUS: 8, HotTenantShare: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	last := reqs[len(reqs)-1].Job.ArrivalUS
	cfg := Config{
		Shards: 3, Seed: 7, Replicas: 2, HedgeUS: HedgeAuto, TenantQuota: 8,
		Schedule: MembershipSchedule{
			{AtUS: last / 4, Shard: 3, Kind: Join},
			{AtUS: last / 2, Shard: 1, Kind: Drain},
			{AtUS: 3 * last / 4, Shard: 4, Kind: Join},
		},
		Faults: &faults.Scenario{Seed: 7, Crashes: []faults.Crash{{Node: 2, AfterFraction: 0.6}}},
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := newRunState(reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for idx, r := range reqs {
		d := &st.decisions[idx]
		d.admitUS, d.epoch = r.Job.ArrivalUS, st.events.epochAt(r.Job.ArrivalUS)
		d.run.shard = st.rings[d.epoch].Shard(r.Key)
	}
	st.dead[2], st.crashUS[2] = true, last/2
	targets := 0
	n := testing.AllocsPerRun(3, func() {
		targets = 0
		for idx := range reqs {
			for _, now := range []int64{st.decisions[idx].admitUS, last / 2, last} {
				if st.hedgeTarget(idx, now) >= 0 {
					targets++
				}
			}
		}
	})
	if n != 0 {
		t.Errorf("%.0f heap objects per %d hedge decisions, want 0", n, 3*len(reqs))
	}
	if targets == 0 || targets == 3*len(reqs) {
		t.Errorf("%d of %d hedge decisions found a target: the walk is not exercised both ways", targets, 3*len(reqs))
	}
}
