package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
)

// lookaheadConfigs are hedged runs — the only ones that memoise outcomes and
// compute CPU outcomes ahead — over a dense stream of small requests, so the
// lookahead and the loop overtake each other: fault-free, a hot tenant under
// a quota, and churn with a crash and a straggler.
func lookaheadConfigs(seed uint64, last int64) []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"faultfree", Config{Shards: 3, Replicas: 2, HedgeUS: 150}},
		{"hot-tenant", Config{Shards: 3, TenantQuota: 2, QuotaWindowUS: 400,
			Replicas: 2, HedgeUS: HedgeAuto}},
		{"churn-crash-straggler", Config{Shards: 3, TenantQuota: 8,
			Schedule: MembershipSchedule{
				{AtUS: last / 4, Shard: 3, Kind: Join},
				{AtUS: last / 2, Shard: 1, Kind: Drain},
				{AtUS: 3 * last / 4, Shard: 4, Kind: Join},
			},
			Replicas: 2, HedgeUS: HedgeAuto,
			Faults: &faults.Scenario{
				Seed:       seed,
				Crashes:    []faults.Crash{{Node: 2, AfterFraction: 0.6}},
				Stragglers: []faults.Straggler{{Node: 0, Factor: 8}},
			}}},
	}
}

// TestLookaheadMatchesInline: a run whose CPU outcomes come from the memo,
// computed ahead on another goroutine or by the first dispatch, renders the
// same bytes as the run that executes every dispatch where it happens —
// report JSON, simtrace metrics and trace, reqtrace breakdown and postmortem
// — on three seeds; CI runs it repeatedly under -race.
func TestLookaheadMatchesInline(t *testing.T) {
	for _, seed := range []uint64{42, 7, 1} {
		reqs, err := GenerateLoad(seed, 160, LoadOptions{MinTuples: 64, MaxTuples: 256, MeanGapUS: 8, HotTenantShare: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range lookaheadConfigs(seed, reqs[len(reqs)-1].Job.ArrivalUS) {
			name, cfg := tc.name, tc.cfg
			cfg.Seed = seed
			render := func(run func([]Request, Config) (*Report, error)) []byte {
				cfg.Trace, cfg.ReqTrace = simtrace.NewSession(), &reqtrace.Capture{}
				rep, err := run(reqs, cfg)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				if rep.HedgeIssued == 0 || rep.Done != len(reqs) {
					t.Fatalf("seed %d %s: %d hedges, %d/%d done; the run exercises nothing", seed, name, rep.HedgeIssued, rep.Done, len(reqs))
				}
				var b bytes.Buffer
				for _, write := range []func() error{
					func() error { return rep.WriteJSON(&b) },
					func() error { return cfg.Trace.Tracer.WriteJSON(&b) },
					func() error { return cfg.Trace.Metrics.Snapshot().WriteJSON(&b) },
					func() error { return reqtrace.WriteBreakdownJSON(&b, cfg.ReqTrace.Traces) },
					func() error { return cfg.ReqTrace.WritePostmortem(&b, "test") },
				} {
					if err := write(); err != nil {
						t.Fatal(err)
					}
				}
				return b.Bytes()
			}
			if ahead, inline := render(Run), render(runInline); !bytes.Equal(ahead, inline) {
				t.Errorf("seed %d %s: the memoised run differs from the inline one\n%s", seed, name, firstDiff(inline, ahead))
			}
		}
	}
}

// TestLookaheadStopsWithRun: a hedged Run that fails in its loop — an
// early request its shard rejects — returns with the lookahead stopped and
// joined, leaving the process the goroutines it had. The lookahead has run
// its last statement when Run returns, but the runtime may take a moment to
// retire the goroutine: one still there after a second has leaked.
func TestLookaheadStopsWithRun(t *testing.T) {
	seed := seedFromName(t)
	reqs := hedgedLoad(t, seed, 400)
	reqs[1].Job.FanOut = 3
	before := runtime.NumGoroutine()
	_, err := Run(reqs, Config{Shards: 3, Seed: seed, Replicas: 2, HedgeUS: 150})
	if err == nil || !strings.Contains(err.Error(), "fan-out 3") {
		t.Fatalf("Run with a job of fan-out 3: error %v", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after the failed Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}
