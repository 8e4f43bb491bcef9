package joincore

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fpgapart/internal/membudget"
)

// budgetedMust runs BudgetedBuildProbe and fails the test on error.
func budgetedMust(t *testing.T, r, s Partitions, cfg BudgetConfig) (Result, BudgetStats) {
	t.Helper()
	res, stats, err := BudgetedBuildProbe(r, s, cfg)
	if err != nil {
		t.Fatalf("BudgetedBuildProbe: %v", err)
	}
	return res, stats
}

// buildBytes returns the unconstrained build-side footprint of r.
func buildBytes(r Partitions) int64 {
	var n int64
	for p := 0; p < r.NumPartitions(); p++ {
		_, tuples := size(r, p)
		n += tuples
	}
	return n * BuildTupleBytes
}

// pairMultiset brute-forces the join's output: how often each
// (key, R payload, S payload) triple must be emitted.
func pairMultiset(r, s *slicePartitions) map[[3]uint32]int {
	want := map[[3]uint32]int{}
	valid := func(ps *slicePartitions, t uint64) bool { return !ps.dummies || uint32(t) != testDummyKey }
	for _, rp := range r.parts {
		for _, rt := range rp {
			for _, sp := range s.parts {
				for _, st := range sp {
					if valid(r, rt) && valid(s, st) && uint32(rt) == uint32(st) {
						want[[3]uint32{uint32(rt), uint32(rt >> 32), uint32(st >> 32)}]++
					}
				}
			}
		}
	}
	return want
}

// TestBudgetedMatchesUnconstrained is the differential test of the one
// executor: no budget, an unlimited one and every limited one agree with the
// nested-loop reference on Matches and Checksum and emit the same multiset
// of pairs, R payload first whichever side built.
func TestBudgetedMatchesUnconstrained(t *testing.T) {
	heavy := randKeys(900, 11)
	// A heavy hitter: one key takes over a third of the probe side.
	for i := 0; i < 300; i++ {
		heavy[i] = 7
	}
	for _, in := range []struct {
		name string
		r, s *slicePartitions
	}{
		{"cpu-written", partitionKeys(randKeys(600, 10), 8, 0), partitionKeys(heavy, 8, 0)},
		{"fpga-written (dummy slots)", partitionKeys(randKeys(600, 10), 8, 4), partitionKeys(heavy, 8, 6)},
		{"nS < nR (role reversal)", partitionKeys(heavy, 8, 0), partitionKeys(randKeys(300, 12), 8, 3)},
	} {
		wantM, wantC := NestedLoop(in.r, in.s)
		wantPairs := pairMultiset(in.r, in.s)
		plain, err := BuildProbe(in.r, in.s, 2)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Matches != wantM || plain.Checksum != wantC {
			t.Fatalf("%s: BuildProbe = %d/%#x, NestedLoop = %d/%#x", in.name, plain.Matches, plain.Checksum, wantM, wantC)
		}
		total := buildBytes(in.r)
		for _, frac := range []int64{0, 100, 50, 25, 10, 1} {
			budget := membudget.New(total * frac / 100) // 0: unlimited
			var mu sync.Mutex
			pairs := map[[3]uint32]int{}
			res, stats := budgetedMust(t, in.r, in.s, BudgetConfig{Budget: budget, Threads: 2,
				Emit: func(_ int, key, rPay, sPay uint32) {
					mu.Lock()
					pairs[[3]uint32{key, rPay, sPay}]++
					mu.Unlock()
				}})
			if res.Matches != wantM || res.Checksum != wantC {
				t.Fatalf("%s, budget %d%%: got %d/%#x, want %d/%#x (stats %+v)",
					in.name, frac, res.Matches, res.Checksum, wantM, wantC, stats)
			}
			if !reflect.DeepEqual(pairs, wantPairs) {
				t.Fatalf("%s, budget %d%%: emitted pair multiset differs from the brute-force join", in.name, frac)
			}
		}
	}
}

func TestBudgetedIsDeterministicAcrossThreads(t *testing.T) {
	rKeys := randKeys(800, 20)
	sKeys := randKeys(500, 21)
	r := partitionKeys(rKeys, 4, 0)
	s := partitionKeys(sKeys, 4, 0)
	// The cap gates each partition's build side; an eighth of the total
	// build footprint is below every per-partition footprint, so this
	// spills — and S is the smaller side, so it also role-reverses.
	budgetBytes := buildBytes(s) / 8
	var wantStats BudgetStats
	for i, threads := range []int{1, 4, 7} {
		cfg := BudgetConfig{Budget: membudget.New(budgetBytes), Spill: &membudget.SpillStore{}, Threads: threads}
		_, stats := budgetedMust(t, r, s, cfg)
		if i == 0 {
			wantStats = stats
			continue
		}
		if stats.HighWaterBytes != wantStats.HighWaterBytes {
			t.Fatalf("threads=%d changed the high-water mark: %d vs %d", threads, stats.HighWaterBytes, wantStats.HighWaterBytes)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("threads=%d changed the decision log:\n%+v\nvs\n%+v", threads, stats, wantStats)
		}
	}
	if wantStats.SpilledPartitions == 0 {
		t.Fatalf("expected spilling at 20%% budget, got %+v", wantStats)
	}
}

func TestBudgetedDepthIsBounded(t *testing.T) {
	// 16 Ki keys over four partitions: after four salted 16-way splits some
	// buckets still hold several tuples, so recursion reaches the depth cap.
	rKeys := randKeys(1<<14, 30)
	sKeys := randKeys(1<<14, 31)
	r := partitionKeys(rKeys, 4, 0)
	s := partitionKeys(sKeys, 4, 0)
	cfg := BudgetConfig{
		// One tuple of budget: no bucket with a duplicate key ever fits,
		// so recursion must hit the depth cap and broadcast.
		Budget:  membudget.New(BuildTupleBytes),
		Threads: 2,
	}
	want, err := BuildProbe(r, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, stats := budgetedMust(t, r, s, cfg)
	if res.Matches != want.Matches || res.Checksum != want.Checksum {
		t.Fatalf("tiny budget changed the result: %d/%#x vs %d/%#x", res.Matches, res.Checksum, want.Matches, want.Checksum)
	}
	// A no-shrink bucket may broadcast one level past the cap, never more.
	if stats.MaxDepth != MaxRecursionDepth+1 {
		t.Fatalf("recursion reached depth %d with the cap at %d, want one level past it", stats.MaxDepth, MaxRecursionDepth)
	}
	if stats.Broadcasts == 0 {
		t.Fatalf("expected depth-capped broadcasts, got %+v", stats)
	}
}

func TestBudgetedHeavyHitterBroadcasts(t *testing.T) {
	// Every R key identical: no salt can split the bucket, only the
	// sketch-triggered broadcast terminates it.
	n := 600
	rKeys := make([]uint32, n)
	sKeys := make([]uint32, n)
	for i := range rKeys {
		rKeys[i] = 42
		sKeys[i] = 42
	}
	r := partitionKeys(rKeys, 4, 0)
	s := partitionKeys(sKeys, 4, 0)
	cfg := BudgetConfig{Budget: membudget.New(int64(n) * BuildTupleBytes / 4), Threads: 1}
	res, stats := budgetedMust(t, r, s, cfg)
	if want := int64(n) * int64(n); res.Matches != want {
		t.Fatalf("cross product = %d matches, want %d", res.Matches, want)
	}
	if stats.Broadcasts == 0 || stats.BroadcastChunks < 2 {
		t.Fatalf("heavy hitter should broadcast in chunks, got %+v", stats)
	}
	for _, d := range stats.Decisions {
		if d.Action == ActionBroadcast && !d.HeavyHitter {
			t.Fatalf("broadcast not attributed to the heavy hitter: %+v", d)
		}
		if d.Action == ActionRecurse {
			t.Fatalf("single-key bucket should never recurse: %+v", d)
		}
	}
}

func TestBudgetedEmitPreservesSides(t *testing.T) {
	// R payloads are offset so emitted (rPay, sPay) sides are checkable
	// even under role reversal (S is the smaller, build, side).
	const offset = 1 << 20
	rKeys := randKeys(500, 40)
	sKeys := randKeys(200, 41)
	r := partitionKeys(rKeys, 8, 0)
	s := partitionKeys(sKeys, 8, 0)
	for p := range r.parts {
		for i := range r.parts[p] {
			r.parts[p][i] += offset << 32
		}
	}
	var emitted int64
	var sum uint64
	cfg := BudgetConfig{
		Budget:  membudget.New(buildBytes(s) / 3),
		Threads: 1,
		Emit: func(p int, key, rPay, sPay uint32) {
			if rPay < offset || sPay >= offset {
				panic("emit swapped the payload sides")
			}
			emitted++
			sum += uint64(rPay) + uint64(sPay)
		},
	}
	res, stats := budgetedMust(t, r, s, cfg)
	if emitted != res.Matches || sum != res.Checksum {
		t.Fatalf("emit saw %d/%#x, result says %d/%#x", emitted, sum, res.Matches, res.Checksum)
	}
	if stats.Reversals == 0 {
		t.Fatalf("S smaller than R should role-reverse, got %+v", stats)
	}
}

func TestBudgetedAccounting(t *testing.T) {
	rKeys := randKeys(1500, 50)
	sKeys := randKeys(1500, 51)
	r := partitionKeys(rKeys, 4, 0)
	s := partitionKeys(sKeys, 4, 0)
	budget := membudget.New(buildBytes(r) / 8)
	spill := &membudget.SpillStore{}
	_, stats := budgetedMust(t, r, s, BudgetConfig{Budget: budget, Spill: spill, Threads: 3})
	if stats.SpilledBytes == 0 || stats.SpilledPartitions == 0 {
		t.Fatalf("nothing spilled under an eighth of the build side: %+v", stats)
	}
	if spill.BytesRead() < stats.SpilledBytes {
		t.Fatalf("spilled buckets were never read back: wrote %d, read %d", stats.SpilledBytes, spill.BytesRead())
	}
	if stats.HighWaterBytes == 0 {
		t.Fatalf("the fold saw no reservations: %+v", stats)
	}
}

// TestTallyHighWater pins what each decision reserves: the high-water mark
// of a one-decision log is that decision's reservation, and of a longer log
// the largest one, since each is released before the next.
func TestTallyHighWater(t *testing.T) {
	for _, c := range []struct {
		name string
		cap  int64
		log  []Decision
		want int64
	}{
		{"in-memory build", 1 << 20, []Decision{{Action: ActionInMemory, BuildTuples: 100}}, 100 * BuildTupleBytes},
		{"spill buffer", 1 << 20, []Decision{{Action: ActionSpill, BuildTuples: 1 << 16}}, 128},
		{"16-way scatter", 1 << 20, []Decision{{Action: ActionRecurse, BuildTuples: 1 << 16}}, 2048},
		{"broadcast chunk at the cap", 1024, []Decision{{Action: ActionBroadcast, BuildTuples: 1000, Chunks: 16}}, 1024},
		{"broadcast below one chunk", 1024, []Decision{{Action: ActionBroadcast, BuildTuples: 10, Chunks: 1}}, 10 * BuildTupleBytes},
		{"broadcast chunk past a sub-tuple cap", 10, []Decision{{Action: ActionBroadcast, BuildTuples: 5, Chunks: 5}}, BuildTupleBytes},
		{"largest of a log", 1 << 20, []Decision{
			{Action: ActionInMemory, BuildTuples: 100},
			{Action: ActionSpill, BuildTuples: 1 << 16},
			{Action: ActionRecurse, Depth: 1, BuildTuples: 1 << 16},
		}, 2048},
	} {
		stats := &BudgetStats{Decisions: c.log}
		tally(stats, BudgetConfig{Budget: membudget.New(c.cap)})
		if stats.HighWaterBytes != c.want || stats.BudgetBytes != c.cap {
			t.Errorf("%s: high water %d B under cap %d B, want %d B under %d B",
				c.name, stats.HighWaterBytes, stats.BudgetBytes, c.want, c.cap)
		}
	}
}

func TestHeavyHitterSketch(t *testing.T) {
	tuples := make([]uint64, 0, 1000)
	for i := 0; i < 700; i++ {
		tuples = append(tuples, uint64(99)|uint64(i)<<32)
	}
	for i := 0; i < 300; i++ {
		tuples = append(tuples, uint64(i%50)|uint64(i)<<32)
	}
	key, count := heavyHitter(tuples)
	if key != 99 || count != 700 {
		t.Fatalf("heavyHitter = key %d count %d, want 99/700", key, count)
	}
	if k, c := heavyHitter(nil); k != 0 || c != 0 {
		t.Fatalf("empty stream should have no hitter, got %d/%d", k, c)
	}
}

// TestRecursionRecyclesItsOutput: once a recursion level has joined its
// sub-buckets, both repartitioned sides go back to the worker's scratch, and
// the next repartitioning pass writes into them. A join whose partitions all
// recurse, down to depth 2, then allocates less than its recursive passes
// write: 2.1 MB over 136 passes at 2^16 tuples a side, of which it allocates
// 1.05 MB, against 2.81 MB while every pass allocated its output.
func TestRecursionRecyclesItsOutput(t *testing.T) {
	const n = 1 << 16
	r, s := partitionKeys(randKeys(n, 60), 8, 0), partitionKeys(randKeys(n, 61), 8, 0)
	cfg := BudgetConfig{Budget: membudget.New(n / 8 * BuildTupleBytes / 64), Threads: 1}
	_, stats := budgetedMust(t, r, s, cfg)
	var written int64
	for _, d := range stats.Decisions {
		if d.Action == ActionRecurse {
			written += d.SpilledBytes
		}
	}
	if stats.MaxDepth < 2 {
		t.Fatalf("max depth %d: the budget no longer makes the sub-buckets recurse", stats.MaxDepth)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	budgetedMust(t, r, s, cfg)
	runtime.ReadMemStats(&after)
	if got := int64(after.TotalAlloc - before.TotalAlloc); got >= written {
		t.Errorf("the join allocated %d bytes; its %d recursive passes write %d", got, stats.Recursions, written)
	}
}
