package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/partserver"
)

// FuzzClusterRoute is differential fuzzing of the routing tier: for
// arbitrary (seed, stream shape, shard count, vnode count, quota, crash)
// configurations, the scatter-gathered Matches, Checksum, tuple total and
// completion count must equal a single-node partserver run of the same job
// stream. Routing, quota deferral, crash failover and the merge may move
// work around and stretch latencies, but they must never create, lose, or
// corrupt a request's output.
func FuzzClusterRoute(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(32), uint8(0), uint8(0), false)
	f.Add(uint64(7), uint8(16), uint8(2), uint8(1), uint8(1), uint8(50), false)
	f.Add(uint64(42), uint8(20), uint8(4), uint8(64), uint8(2), uint8(40), true)
	f.Add(uint64(1<<63), uint8(1), uint8(1), uint8(128), uint8(3), uint8(100), false)
	f.Fuzz(func(t *testing.T, seed uint64, nreq, shards, vnodes, quota, hotPct uint8, crash bool) {
		n := 1 + int(nreq)%24
		ns := 1 + int(shards)%5
		reqs, err := GenerateLoad(seed, n, LoadOptions{
			MinTuples:      64,
			MaxTuples:      512,
			MeanGapUS:      40,
			HotTenantShare: float64(hotPct%101) / 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Shards:      ns,
			VNodes:      1 + int(vnodes)%256,
			TenantQuota: int(quota) % 4,
			Seed:        seed,
		}
		// A crash exercises the failover walk; keeping it to one shard of a
		// ≥2-shard pool guarantees a survivor, so every request still
		// completes and the parity invariant holds.
		if crash && ns > 1 {
			cfg.Faults = &faults.Scenario{
				Seed:    seed,
				Crashes: []faults.Crash{{Node: 0, AfterFraction: 0.5}},
			}
		}
		rep, err := Run(reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}

		jobs := make([]partserver.Job, len(reqs))
		for i := range reqs {
			jobs[i] = reqs[i].Job
		}
		refSeed := seed
		if refSeed == 0 {
			refSeed = 1
		}
		ref, err := partserver.Run(jobs, partserver.Config{FPGAs: 1, Workers: 1, Seed: refSeed})
		if err != nil {
			t.Fatal(err)
		}
		var (
			refDone               int
			refTuples, refMatches int64
			refChecksum           uint32
		)
		for i := range ref.Results {
			r := &ref.Results[i]
			if r.Status != partserver.StatusDone {
				t.Fatalf("reference job %d: %v %q", r.ID, r.Status, r.Err)
			}
			refDone++
			refTuples += r.Tuples
			refMatches += r.Matches
			refChecksum += r.Checksum
		}

		if rep.Done != refDone {
			t.Fatalf("cluster completed %d requests, reference %d (failed %d, failed shards %v)",
				rep.Done, refDone, rep.Failed, rep.FailedShards)
		}
		var gotTuples int64
		for i := range rep.Results {
			gotTuples += rep.Results[i].Tuples
		}
		if gotTuples != refTuples {
			t.Fatalf("cluster tuples %d, reference %d", gotTuples, refTuples)
		}
		if rep.Matches != refMatches || rep.Checksum != refChecksum {
			t.Fatalf("cluster merge %d/%#x, reference %d/%#x",
				rep.Matches, rep.Checksum, refMatches, refChecksum)
		}
	})
}

// FuzzMembershipSchedule is differential fuzzing of live churn: from
// arbitrary bytes it grows a legal membership schedule (joins of fresh
// shard ids, drains of current members, nondecreasing times), runs the
// stream through the churning cluster — with the replica-set width and the
// hedge deadline (off, fixed, or HedgeAuto) drawn as inputs too, so hedges
// race the churn on the shards' real queues — and checks it against the same
// stream on the static initial ring. Keys whose owner never changes across any epoch must land on the
// same shard with the same output as the static run; the merged totals must
// match the single-node reference either way. Churn may only ever re-route
// the moved ranges. The churning run is captured, and its causal traces are
// held to checkCapture's oracle.
func FuzzMembershipSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(3), []byte{0x01, 0x40}, uint8(0), int16(0))
	f.Add(uint64(7), uint8(20), uint8(2), []byte{0x01, 0x20, 0x80, 0x60}, uint8(1), int16(300))
	f.Add(uint64(42), uint8(24), uint8(4), []byte{0x01, 0x10, 0x01, 0x30, 0x80, 0x50}, uint8(0), int16(0))
	f.Add(uint64(9), uint8(16), uint8(3), []byte{0x80, 0x08, 0x01, 0x70}, uint8(2), int16(-1))
	f.Add(uint64(23), uint8(23), uint8(3), []byte{0x01, 0x18, 0x80, 0x28, 0x01, 0x38}, uint8(1), int16(40))
	f.Fuzz(func(t *testing.T, seed uint64, nreq, shards uint8, plan []byte, replicas uint8, hedgeUS int16) {
		n := 1 + int(nreq)%24
		ns := 2 + int(shards)%3
		reqs, err := GenerateLoad(seed, n, LoadOptions{
			MinTuples: 64,
			MaxTuples: 512,
			MeanGapUS: 40,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Decode the plan bytes pairwise into legal events: the first byte's
		// low bit picks join/drain, the second scales the virtual time. A
		// join picks the next unused shard id; a drain removes the oldest
		// member unless it is the last one. Times grow monotonically so the
		// schedule always validates.
		members := make([]int, ns)
		for s := range members {
			members[s] = s
		}
		next := ns
		var sched MembershipSchedule
		at := int64(0)
		for i := 0; i+1 < len(plan) && len(sched) < 4; i += 2 {
			at += int64(plan[i+1]) * 8
			if plan[i]&1 == 1 {
				sched = append(sched, MembershipEvent{AtUS: at, Shard: next, Kind: Join})
				members = append(members, next)
				next++
			} else if len(members) > 1 {
				sched = append(sched, MembershipEvent{AtUS: at, Shard: members[0], Kind: Drain})
				members = members[1:]
			}
		}
		if len(sched) == 0 {
			t.Skip("plan decoded to no events")
		}

		// Replicas 1..3; a deadline needs a replica to hedge to, and any
		// negative draw means HedgeAuto.
		cfg := Config{Shards: ns, Schedule: sched, Seed: seed, Replicas: 1 + int(replicas)%3}
		if cfg.Replicas > 1 {
			cfg.HedgeUS = max(int64(hedgeUS), HedgeAuto)
		}
		capt := &reqtrace.Capture{}
		cfg.ReqTrace = capt
		rep, err := Run(reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkCapture(t, rep, capt)
		static := cfg
		static.Schedule = nil
		static.Replicas = 0
		static.HedgeUS = 0
		static.ReqTrace = nil
		srep, err := Run(reqs, static)
		if err != nil {
			t.Fatal(err)
		}

		// The epoch rings the router used (vnodes defaulted to 128).
		rings, err := sched.epochs(ns, 128)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Results {
			rr, sr := &rep.Results[i], &srep.Results[i]
			moved := false
			for _, ring := range rings[1:] {
				if ring.Shard(reqs[i].Key) != rings[0].Shard(reqs[i].Key) {
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			if rr.Shard != sr.Shard {
				t.Fatalf("request %d (unmoved key) on shard %d under churn, %d static (schedule %v)",
					i, rr.Shard, sr.Shard, sched)
			}
			if rr.Checksum != sr.Checksum || rr.Matches != sr.Matches {
				t.Fatalf("request %d (unmoved key): churn output %d/%d, static %d/%d",
					i, rr.Checksum, rr.Matches, sr.Checksum, sr.Matches)
			}
		}
		if rep.Done != srep.Done || rep.Checksum != srep.Checksum || rep.Matches != srep.Matches {
			t.Fatalf("churn totals done=%d checksum=%d matches=%d, static done=%d checksum=%d matches=%d (schedule %v)",
				rep.Done, rep.Checksum, rep.Matches, srep.Done, srep.Checksum, srep.Matches, sched)
		}
		checkParity(t, rep, reqs, seed)
	})
}

// FuzzParseMembershipSchedule holds the -schedule parser to its contract on
// arbitrary input: an error, or a schedule that renders back to a spec
// parsing to the same schedule; never a panic.
func FuzzParseMembershipSchedule(f *testing.F) {
	for _, s := range []string{"join:3@4000,drain:1@9000", " join:3@4000, drain:1@9000 ", "", "drain:+1@-0", "join:3", "leave:1@5", "join:1@2,,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := ParseMembershipSchedule(s)
		if err != nil {
			return
		}
		events := make([]string, len(sched))
		for j, ev := range sched {
			events[j] = fmt.Sprintf("%s:%d@%d", ev.Kind, ev.Shard, ev.AtUS)
		}
		again, err := ParseMembershipSchedule(strings.Join(events, ","))
		if err != nil || !slices.Equal(again, sched) {
			t.Fatalf("%q → %v re-renders to %v, %v", s, sched, again, err)
		}
	})
}
