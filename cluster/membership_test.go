package cluster

import (
	"bytes"
	"strings"
	"testing"

	"fpgapart/partserver"
)

// TestMembershipScheduleValidate pins the schedule's legality rules: time
// order, join/drain against the evolving member set, never emptying the
// ring, bounded shard ids — and that a drained id may legally rejoin.
func TestMembershipScheduleValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		sched   MembershipSchedule
		wantErr string
	}{
		{"empty", 3, nil, ""},
		{"join-then-drain", 3, MembershipSchedule{
			{AtUS: 100, Shard: 3, Kind: Join},
			{AtUS: 200, Shard: 1, Kind: Drain},
		}, ""},
		{"rejoin-after-drain", 3, MembershipSchedule{
			{AtUS: 100, Shard: 1, Kind: Drain},
			{AtUS: 200, Shard: 1, Kind: Join},
		}, ""},
		{"equal-times", 3, MembershipSchedule{
			{AtUS: 100, Shard: 3, Kind: Join},
			{AtUS: 100, Shard: 4, Kind: Join},
		}, ""},
		{"negative-time", 3, MembershipSchedule{
			{AtUS: -1, Shard: 3, Kind: Join},
		}, "negative time"},
		{"out-of-order", 3, MembershipSchedule{
			{AtUS: 200, Shard: 3, Kind: Join},
			{AtUS: 100, Shard: 4, Kind: Join},
		}, "precedes"},
		{"join-member", 3, MembershipSchedule{
			{AtUS: 100, Shard: 2, Kind: Join},
		}, "already a member"},
		{"drain-nonmember", 3, MembershipSchedule{
			{AtUS: 100, Shard: 7, Kind: Drain},
		}, "not a ring member"},
		{"drain-last", 1, MembershipSchedule{
			{AtUS: 100, Shard: 0, Kind: Drain},
		}, "last shard"},
		{"empty-via-drains", 2, MembershipSchedule{
			{AtUS: 100, Shard: 0, Kind: Drain},
			{AtUS: 200, Shard: 1, Kind: Drain},
		}, "last shard"},
		{"huge-id", 3, MembershipSchedule{
			{AtUS: 100, Shard: maxShardID, Kind: Join},
		}, "outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sched.Validate(tc.shards)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseMembershipSchedule pins the CLI syntax.
func TestParseMembershipSchedule(t *testing.T) {
	sched, err := ParseMembershipSchedule(" join:3@4000, drain:1@9000 ")
	if err != nil {
		t.Fatal(err)
	}
	want := MembershipSchedule{
		{AtUS: 4000, Shard: 3, Kind: Join},
		{AtUS: 9000, Shard: 1, Kind: Drain},
	}
	if len(sched) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(sched), len(want))
	}
	for i := range want {
		if sched[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, sched[i], want[i])
		}
	}
	if s, err := ParseMembershipSchedule("  "); err != nil || s != nil {
		t.Fatalf("blank schedule: %v %v, want nil, nil", s, err)
	}
	for _, bad := range []string{"join:3", "3@4000", "leave:3@4000", "join:x@4000", "join:3@x"} {
		if _, err := ParseMembershipSchedule(bad); err == nil {
			t.Errorf("ParseMembershipSchedule(%q): no error", bad)
		}
	}
}

// churnLoad is the shared stream of the membership tests: dense enough that
// a mid-stream event lands between requests.
func churnLoad(t *testing.T, seed uint64, n int) []Request {
	t.Helper()
	reqs, err := GenerateLoad(seed, n, LoadOptions{MeanGapUS: 40})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestLiveJoinMoveBound: a live join of one shard into N must re-route at
// most ceil(2/(N+1)) of the stream's keys (permyriad, with vnode-placement
// slack), while the modulo baseline reshuffles the majority — the
// consistent-hashing contract, now measured on the live migration path.
func TestLiveJoinMoveBound(t *testing.T) {
	for shards := 2; shards <= 5; shards++ {
		seed := seedFromName(t) + uint64(shards)
		reqs := churnLoad(t, seed, 24)
		rep, err := Run(reqs, Config{
			Shards:   shards,
			Seed:     seed,
			Schedule: MembershipSchedule{{AtUS: 400, Shard: shards, Kind: Join}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.EventMovedX10000) != 1 {
			t.Fatalf("shards=%d: event moves %v, want one entry", shards, rep.EventMovedX10000)
		}
		bound := 2 * 10000 / int64(shards+1)
		if moved := rep.EventMovedX10000[0]; moved > bound {
			t.Errorf("shards=%d: live join moved %d permyriad of keys, bound %d", shards, moved, bound)
		}
		keys := make([]uint64, len(reqs))
		for i := range reqs {
			keys[i] = reqs[i].Key
		}
		if mod := MovedPermyriad(keys, Modulo(shards), Modulo(shards+1)); mod < 5000 {
			t.Errorf("shards=%d: modulo baseline moved only %d permyriad; the comparison is broken", shards, mod)
		}
	}
}

// TestInFlightCompletesOnAdmissionOwner: a drain stops the shard's accept
// path at the event time, but everything it admitted before still completes
// on it — and nothing admitted at or after the event routes to it.
func TestInFlightCompletesOnAdmissionOwner(t *testing.T) {
	const drainAt = 500
	seed := seedFromName(t)
	reqs := churnLoad(t, seed, 24)
	rep, err := Run(reqs, Config{
		Shards:   3,
		Seed:     seed,
		Schedule: MembershipSchedule{{AtUS: drainAt, Shard: 1, Kind: Drain}},
	})
	if err != nil {
		t.Fatal(err)
	}
	before, after := 0, 0
	for i := range rep.Results {
		rr := &rep.Results[i]
		if rr.AdmitUS < drainAt {
			before++
			if rr.Shard == 1 && rr.Status != partserver.StatusDone {
				t.Errorf("request %d admitted to draining shard 1 at %dus: status %q, want done",
					i, rr.AdmitUS, rr.Status)
			}
		} else {
			after++
			if rr.Shard == 1 {
				t.Errorf("request %d admitted at %dus routed to shard 1, drained at %dus",
					i, rr.AdmitUS, drainAt)
			}
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("drain at %dus split the stream %d/%d; need requests on both sides", drainAt, before, after)
	}
	if rep.Done != len(reqs) {
		t.Fatalf("only %d/%d requests done (failed %d)", rep.Done, len(reqs), rep.Failed)
	}
	checkParity(t, rep, reqs, seed)
}

// TestChurnMatchesStaticRingOnUnmovedKeys: requests whose key owns the same
// shard in every membership epoch must be completely untouched by churn —
// same shard, same output — relative to the static-ring run of the
// identical stream. Only moved ranges may re-route.
func TestChurnMatchesStaticRingOnUnmovedKeys(t *testing.T) {
	seed := seedFromName(t)
	reqs := churnLoad(t, seed, 24)
	sched := MembershipSchedule{
		{AtUS: 300, Shard: 3, Kind: Join},
		{AtUS: 700, Shard: 0, Kind: Drain},
	}
	churn, err := Run(reqs, Config{Shards: 3, Seed: seed, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(reqs, Config{Shards: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rings, err := sched.epochs(3, 128)
	if err != nil {
		t.Fatal(err)
	}
	unmoved := func(key uint64) bool {
		owner := rings[0].Shard(key)
		for _, r := range rings[1:] {
			if r.Shard(key) != owner {
				return false
			}
		}
		return true
	}
	checked := 0
	for i := range reqs {
		if !unmoved(reqs[i].Key) {
			continue
		}
		checked++
		c, s := &churn.Results[i], &static.Results[i]
		if c.Shard != s.Shard {
			t.Errorf("unmoved request %d: churn shard %d, static shard %d", i, c.Shard, s.Shard)
		}
		if c.Checksum != s.Checksum || c.Matches != s.Matches {
			t.Errorf("unmoved request %d: churn output %d/%d, static %d/%d",
				i, c.Checksum, c.Matches, s.Checksum, s.Matches)
		}
	}
	if checked == 0 {
		t.Fatal("no unmoved keys in the stream; the test checks nothing")
	}
	if churn.Checksum != static.Checksum || churn.Done != static.Done {
		t.Errorf("churn totals %d done / checksum %d, static %d / %d",
			churn.Done, churn.Checksum, static.Done, static.Checksum)
	}
}

// TestDrainedShardKeepsReportRow is the regression test for the per-shard
// report rows under churn: a drained shard keeps its row with its
// cumulative pre-drain load, and a joined shard (id ≥ Shards) gets a row of
// its own instead of crashing the gather.
func TestDrainedShardKeepsReportRow(t *testing.T) {
	seed := seedFromName(t)
	reqs := churnLoad(t, seed, 24)
	rep, err := Run(reqs, Config{
		Shards: 3,
		Seed:   seed,
		Schedule: MembershipSchedule{
			{AtUS: 300, Shard: 3, Kind: Join},
			{AtUS: 600, Shard: 1, Kind: Drain},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ShardJobs) != 4 || len(rep.ShardMakespanUS) != 4 {
		t.Fatalf("per-shard rows for %d/%d shards, want 4 (ids 0..3, drained shard included)",
			len(rep.ShardJobs), len(rep.ShardMakespanUS))
	}
	if rep.ShardJobs[1] == 0 {
		t.Error("drained shard 1 reports zero jobs; its cumulative pre-drain load was lost")
	}
	var total int
	for _, n := range rep.ShardJobs {
		total += n
	}
	if total != rep.Done+rep.Failed-countUnrouted(rep) {
		t.Errorf("per-shard jobs sum %d, requests admitted %d", total, rep.Done+rep.Failed-countUnrouted(rep))
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b.Bytes(), []byte("{\"shard\": ")); n != 4 {
		t.Errorf("report JSON has %d per-shard rows, want 4", n)
	}
}

func countUnrouted(rep *Report) int {
	n := 0
	for i := range rep.Results {
		if rep.Results[i].Shard < 0 {
			n++
		}
	}
	return n
}

// TestReplicaSetAlwaysDistinct: the replica set is always R distinct
// members — and exactly the whole membership when N ≤ R — with the primary
// first, whatever the ring size.
func TestReplicaSetAlwaysDistinct(t *testing.T) {
	for n := 1; n <= 5; n++ {
		members := make([]int, n)
		for i := range members {
			members[i] = i * 3 // non-contiguous ids
		}
		ring, err := NewRing(members, 64)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 4; r++ {
			for key := uint64(0); key < 64; key++ {
				set := ring.ReplicaSet(nil, key, r)
				wantLen := r
				if n < r {
					wantLen = n
				}
				if len(set) != wantLen {
					t.Fatalf("n=%d r=%d key=%d: replica set %v, want %d members", n, r, key, set, wantLen)
				}
				if set[0] != ring.Shard(key) {
					t.Fatalf("n=%d r=%d key=%d: replica set %v does not start with primary %d",
						n, r, key, set, ring.Shard(key))
				}
				seen := map[int]bool{}
				for _, s := range set {
					if seen[s] {
						t.Fatalf("n=%d r=%d key=%d: duplicate shard in replica set %v", n, r, key, set)
					}
					if !ring.Member(s) {
						t.Fatalf("n=%d r=%d key=%d: non-member %d in replica set", n, r, key, s)
					}
					seen[s] = true
				}
			}
		}
	}
}
