package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/simtrace"
)

// renderRun executes one routed run and renders every observable surface —
// report JSON, Chrome trace JSON, metrics JSON — as bytes.
func renderRun(t *testing.T, seed uint64, n int, cfg Config) []byte {
	t.Helper()
	reqs, err := GenerateLoad(seed, n, LoadOptions{MeanGapUS: 60, HotTenantShare: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	sess := simtrace.NewSession()
	cfg.Seed = seed
	cfg.Trace = sess
	rep, err := Run(reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := sess.Tracer.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := sess.Metrics.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// crashScenario is the shared fault mix of the determinism tests: one shard
// fail-stops a third of the way through its share of the stream.
func crashScenario(seed uint64) *faults.Scenario {
	return &faults.Scenario{
		Seed:    seed,
		Crashes: []faults.Crash{{Node: 1, AfterFraction: 0.3}},
	}
}

// TestClusterSameSeedByteIdentical is the cluster's determinism contract:
// three fresh runs of the same seed and stream — concurrent shard
// goroutines, quota deferrals, crash failover and all — must render
// byte-identical reports, Chrome traces, and metric snapshots. The CI race
// job runs this package under -race, so advanceApart's goroutines are also
// checked for data races while a shard fail-stops mid-stream.
func TestClusterSameSeedByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"faultfree", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400}},
		{"faulty", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400, Faults: crashScenario(23)}},
		// Full churn under hedging: a shard joins, another drains behind a
		// handoff barrier, replica-2 auto-deadline hedges race a straggler —
		// every new subsystem of the dynamic path on one byte-identity check.
		{"churn-hedged", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400,
			Schedule: MembershipSchedule{
				{AtUS: 300, Shard: 3, Kind: Join},
				{AtUS: 700, Shard: 1, Kind: Drain},
			},
			Replicas: 2, HedgeUS: HedgeAuto,
			Faults: &faults.Scenario{Seed: 23, Stragglers: []faults.Straggler{{Node: 2, Factor: 8}}}}},
		// A shard fail-stops while it is also the drain target: the planning
		// pass, the crash bookkeeping and the failover reroutes must still
		// resolve to the same bytes every run.
		{"crash-while-draining", Config{Shards: 3,
			Schedule: MembershipSchedule{{AtUS: 500, Shard: 1, Kind: Drain}},
			Faults:   crashScenario(23)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := renderRun(t, 23, 18, tc.cfg)
			for run := 2; run <= 3; run++ {
				got := renderRun(t, 23, 18, tc.cfg)
				if !bytes.Equal(first, got) {
					t.Fatalf("run %d differs from run 1\n%s", run, firstDiff(first, got))
				}
			}
		})
	}
}

// TestClusterSeedSensitivity guards against the seed being ignored:
// different seeds must be able to produce different routed runs (keys,
// arrivals and shard schedules all derive from it), while any single seed
// stays self-consistent.
func TestClusterSeedSensitivity(t *testing.T) {
	base := renderRun(t, 5, 12, Config{Shards: 3})
	for seed := uint64(6); seed < 16; seed++ {
		if !bytes.Equal(base, renderRun(t, seed, 12, Config{Shards: 3})) {
			return
		}
	}
	t.Fatal("10 different seeds all rendered the identical cluster run; seeding is dead")
}

// firstDiff reports the first line where want and got diverge.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  run1: %s\n  run2: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: %d lines vs %d lines", len(wl), len(gl))
}
