package joincore

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"fpgapart/internal/hashutil"
	"fpgapart/workload"
)

// testDummyKey marks the empty slots of a slicePartitions with dummies.
const testDummyKey = 0xFFFFFFFF

// slicePartitions is a simple in-memory Partitions for tests: partition p is
// the slots parts[p] — stride words each (0 means one), the first a packed
// tuple — cut into pieces runs (0 means one) and, with dummies, holding empty
// slots marked by testDummyKey.
type slicePartitions struct {
	parts   [][]uint64
	stride  int
	pieces  int
	dummies bool
}

func pack(key, payload uint32) uint64 { return uint64(key) | uint64(payload)<<32 }

func (s *slicePartitions) NumPartitions() int { return len(s.parts) }
func (s *slicePartitions) NumRuns(p int) int  { return max(s.pieces, 1) }
func (s *slicePartitions) Run(p, i int) ([]uint64, int, uint32, bool) {
	stride, k := max(s.stride, 1), s.NumRuns(p)
	n := len(s.parts[p]) / stride
	return s.parts[p][i*n/k*stride : (i+1)*n/k*stride], stride, testDummyKey, s.dummies
}

// partitionKeys builds a slicePartitions from keys with payload = index.
func partitionKeys(keys []uint32, numPartitions int, dummyEvery int) *slicePartitions {
	bits := hashutil.Log2(numPartitions)
	sp := &slicePartitions{parts: make([][]uint64, numPartitions), dummies: dummyEvery > 0}
	for i, k := range keys {
		p := hashutil.PartitionIndex32(k, bits, true)
		sp.parts[p] = append(sp.parts[p], pack(k, uint32(i)))
		if dummyEvery > 0 && i%dummyEvery == 0 {
			sp.parts[p] = append(sp.parts[p], pack(testDummyKey, 0))
		}
	}
	return sp
}

func randKeys(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(rng.Intn(n)) // plenty of duplicates
	}
	return keys
}

func TestBuildProbeMatchesNestedLoop(t *testing.T) {
	rKeys := randKeys(500, 1)
	sKeys := randKeys(800, 2)
	r := partitionKeys(rKeys, 16, 0)
	s := partitionKeys(sKeys, 16, 0)
	got, err := BuildProbe(r, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantM, wantC := NestedLoop(r, s)
	if got.Matches != wantM || got.Checksum != wantC {
		t.Fatalf("BuildProbe = %d/%d, NestedLoop = %d/%d", got.Matches, got.Checksum, wantM, wantC)
	}
}

func TestBuildProbeSkipsDummySlots(t *testing.T) {
	rKeys := randKeys(400, 3)
	sKeys := randKeys(400, 4)
	clean := BuildProbeMust(t, partitionKeys(rKeys, 8, 0), partitionKeys(sKeys, 8, 0))
	dirty := BuildProbeMust(t, partitionKeys(rKeys, 8, 3), partitionKeys(sKeys, 8, 5))
	if clean.Matches != dirty.Matches || clean.Checksum != dirty.Checksum {
		t.Fatalf("dummy slots changed the result: %d/%d vs %d/%d",
			clean.Matches, clean.Checksum, dirty.Matches, dirty.Checksum)
	}
}

func BuildProbeMust(t *testing.T, r, s Partitions) Result {
	t.Helper()
	res, err := BuildProbe(r, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFanOutMismatchRejected(t *testing.T) {
	r := partitionKeys(randKeys(10, 1), 8, 0)
	s := partitionKeys(randKeys(10, 2), 16, 0)
	if _, err := BuildProbe(r, s, 1); err == nil {
		t.Error("fan-out mismatch accepted")
	}
}

func TestEmptyPartitions(t *testing.T) {
	r := &slicePartitions{parts: make([][]uint64, 8)}
	s := &slicePartitions{parts: make([][]uint64, 8)}
	res, err := BuildProbe(r, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 0 {
		t.Errorf("matches on empty input: %d", res.Matches)
	}
}

func TestThreadCountsAgree(t *testing.T) {
	rKeys := randKeys(2000, 5)
	sKeys := randKeys(3000, 6)
	r := partitionKeys(rKeys, 32, 0)
	s := partitionKeys(sKeys, 32, 0)
	base := BuildProbeMust(t, r, s)
	for _, threads := range []int{1, 2, 8, 33} {
		res, err := BuildProbe(r, s, threads)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != base.Matches || res.Checksum != base.Checksum {
			t.Fatalf("threads=%d disagrees: %d/%d vs %d/%d", threads, res.Matches, res.Checksum, base.Matches, base.Checksum)
		}
	}
}

func TestDuplicateHeavyKeys(t *testing.T) {
	// All R and S tuples share one key: matches = |R|·|S|.
	keys := make([]uint32, 50)
	for i := range keys {
		keys[i] = 7
	}
	r := partitionKeys(keys, 4, 0)
	s := partitionKeys(keys[:30], 4, 0)
	res := BuildProbeMust(t, r, s)
	if res.Matches != 50*30 {
		t.Fatalf("matches = %d, want 1500", res.Matches)
	}
}

func TestBuildProbeTimingSplit(t *testing.T) {
	rKeys := randKeys(20000, 7)
	sKeys := randKeys(20000, 8)
	res := BuildProbeMust(t, partitionKeys(rKeys, 64, 0), partitionKeys(sKeys, 64, 0))
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
	if res.Build+res.Probe != res.Elapsed {
		t.Errorf("build %v + probe %v ≠ elapsed %v", res.Build, res.Probe, res.Elapsed)
	}
	if res.Build <= 0 || res.Probe <= 0 {
		t.Errorf("degenerate phase split: build %v probe %v", res.Build, res.Probe)
	}
}

func TestPropertyBuildProbeEqualsNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, ns := rng.Intn(200)+1, rng.Intn(200)+1
		r := partitionKeys(randKeys(nr, seed), 8, rng.Intn(4))
		s := partitionKeys(randKeys(ns, seed+1), 8, rng.Intn(4))
		got, err := BuildProbe(r, s, 2)
		if err != nil {
			return false
		}
		wantM, wantC := NestedLoop(r, s)
		return got.Matches == wantM && got.Checksum == wantC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNonPartitionedMatchesPartitioned(t *testing.T) {
	g := workload.NewGenerator(9)
	spec := workload.WorkloadSpec{ID: "t", TuplesR: 5000, TuplesS: 8000, Distribution: workload.Linear}
	in, err := spec.Generate(10)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	np, err := NonPartitioned(in.R, in.S, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every S tuple has exactly one match in a linear-keyed R.
	if np.Matches != int64(in.S.NumTuples) {
		t.Fatalf("matches = %d, want %d", np.Matches, in.S.NumTuples)
	}
	// Cross-check against the partitioned path.
	rKeys := make([]uint32, in.R.NumTuples)
	for i := range rKeys {
		rKeys[i] = in.R.Key(i)
	}
	sKeys := make([]uint32, in.S.NumTuples)
	for i := range sKeys {
		sKeys[i] = in.S.Key(i)
	}
	// Payload conventions differ (index per relation), so compare only
	// match counts here; checksum equivalence is covered by the partitioned
	// tests against NestedLoop.
	pr := partitionKeys(rKeys, 16, 0)
	ps := partitionKeys(sKeys, 16, 0)
	bp, err := BuildProbe(pr, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Matches != np.Matches {
		t.Fatalf("partitioned %d matches, non-partitioned %d", bp.Matches, np.Matches)
	}
}

func TestNonPartitionedSingleThread(t *testing.T) {
	spec := workload.WorkloadSpec{ID: "t", TuplesR: 100, TuplesS: 100, Distribution: workload.Linear}
	in, err := spec.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NonPartitioned(in.R, in.S, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 100 {
		t.Fatalf("matches = %d", res.Matches)
	}
}

// TestBuildProbeAllocations guards the fixed cost of the executor's
// unbudgeted case on a fresh Joiner: a handful of heap objects per join (the
// Joiner, its worker, the worker's table) and nothing per partition — at 32
// times the fan-out only the table's regrowth is added (it grows to the
// largest partition seen so far, by powers of two). A reused Joiner makes
// none (TestJoinerReuseAllocatesNothing). Four and six since the result and
// the stats are values (five and seven while both were on the heap; six and
// fourteen while the chain links grew to each new largest partition exactly;
// seven and fifteen when the single-thread executor still started a
// goroutine).
func TestBuildProbeAllocations(t *testing.T) {
	rKeys, sKeys := randKeys(1<<16, 60), randKeys(1<<16, 61)
	perJoin := func(fanOut int) float64 {
		r, s := partitionKeys(rKeys, fanOut, 0), partitionKeys(sKeys, fanOut, 0)
		join := func() {
			if _, err := BuildProbe(r, s, 1); err != nil {
				t.Fatal(err)
			}
		}
		return min(testing.AllocsPerRun(3, join), testing.AllocsPerRun(3, join))
	}
	if small, large := perJoin(256), perJoin(8192); small > 4 || large > 6 {
		t.Errorf("%.0f heap objects at fan-out 256, %.0f at 8192: want at most 4 and 6", small, large)
	}
}

// TestSingleThreadJoinRunsOnTheCaller: a Threads: 1 join starts no goroutine
// — seen from inside a match callback, while the join is under way, the
// process has as many as before the call — so a panic in the callback
// unwinds through BudgetedBuildProbe into the caller, where a deferred
// recover (the guardSimulator of hashjoin, partserver's worker) can turn it
// into an error. On a goroutine of the executor's own it would end the
// process.
func TestSingleThreadJoinRunsOnTheCaller(t *testing.T) {
	r, s := partitionKeys(randKeys(512, 3), 8, 0), partitionKeys(randKeys(512, 3), 8, 0)
	before, during := runtime.NumGoroutine(), -1
	res, _, err := BudgetedBuildProbe(r, s, BudgetConfig{Threads: 1, Emit: func(int, uint32, uint32, uint32) {
		if during < 0 {
			during = runtime.NumGoroutine()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches == 0 || during != before {
		t.Errorf("%d matches; %d goroutines during the join, %d before it", res.Matches, during, before)
	}

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, _, err = BudgetedBuildProbe(r, s, BudgetConfig{Threads: 1, Emit: func(int, uint32, uint32, uint32) {
			panic("emit: consumer fault")
		}})
	}()
	if recovered != "emit: consumer fault" {
		t.Errorf("recovered %v (join returned %v), want the callback's panic", recovered, err)
	}
}
