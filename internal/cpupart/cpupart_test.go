package cpupart

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fpgapart/internal/hashutil"
	"fpgapart/workload"
)

func genRel(t *testing.T, d workload.Distribution, n int, seed int64) *workload.Relation {
	t.Helper()
	rel, err := workload.NewGenerator(seed).Relation(d, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// checkPartitioned verifies that every tuple sits in its correct partition
// and that the output is a permutation of the input.
func checkPartitioned(t *testing.T, rel *workload.Relation, res *Result, hash bool) {
	t.Helper()
	bits := hashutil.Log2(res.NumPartitions)
	if res.Offsets[res.NumPartitions] != int64(rel.NumTuples) {
		t.Fatalf("offsets end at %d, want %d", res.Offsets[res.NumPartitions], rel.NumTuples)
	}
	for p := 0; p < res.NumPartitions; p++ {
		for _, tup := range res.Partition(p) {
			if got := hashutil.PartitionIndex32(uint32(tup), bits, hash); got != uint32(p) {
				t.Fatalf("tuple %#x in partition %d, belongs to %d", tup, p, got)
			}
		}
	}
	got := append([]uint64(nil), res.Data...)
	want := append([]uint64(nil), rel.Data...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output is not a permutation of input at %d", i)
		}
	}
}

func TestBufferedMatchesReference(t *testing.T) {
	for _, d := range []workload.Distribution{workload.Linear, workload.Random, workload.Grid} {
		for _, hash := range []bool{false, true} {
			for _, threads := range []int{1, 4} {
				rel := genRel(t, d, 30000, 5)
				res, err := Partition(rel, Config{NumPartitions: 256, Hash: hash, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				checkPartitioned(t, rel, &res, hash)
			}
		}
	}
}

func TestNaiveMatchesBuffered(t *testing.T) {
	rel := genRel(t, workload.Random, 20000, 9)
	buffered, err := Partition(rel, Config{NumPartitions: 128, Hash: true, Threads: 2, Algorithm: Buffered})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Partition(rel, Config{NumPartitions: 128, Hash: true, Threads: 2, Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	checkPartitioned(t, rel, &naive, true)
	for p := 0; p <= 128; p++ {
		if buffered.Offsets[p] != naive.Offsets[p] {
			t.Fatalf("offset mismatch at %d", p)
		}
	}
}

// stableReference partitions by appending each tuple to its partition in
// arrival order — what every algorithm must produce for every thread count.
func stableReference(src []uint64, cfg Config) (data []uint64, offsets []int64) {
	ix := cfg.indexer()
	parts := make([][]uint64, cfg.NumPartitions)
	for _, tup := range src {
		parts[ix.of(tup)] = append(parts[ix.of(tup)], tup)
	}
	offsets = make([]int64, 1, cfg.NumPartitions+1)
	for _, part := range parts {
		data = append(data, part...)
		offsets = append(offsets, int64(len(data)))
	}
	return data, offsets
}

// TestDataIsIdenticalForEveryThreadCount is the property the thread clamp and
// the join's FIFO consumers rest on: the partitioners are stable — worker
// w's tuples precede worker w+1's in every partition, each in arrival order
// — so Data does not depend on Threads (or on the algorithm) at all.
func TestDataIsIdenticalForEveryThreadCount(t *testing.T) {
	rel := genRel(t, workload.Random, 10000, 17)
	for _, alg := range []Algorithm{Buffered, Naive} {
		for _, parts := range []int{16, 1024} {
			cfg := Config{NumPartitions: parts, Hash: true, Salt: 0x5bd1e995, Algorithm: alg}
			wantData, wantOffsets := stableReference(rel.Data, cfg)
			for _, cfg.Threads = range []int{0, 1, 2, 3, 4, 5, 7, 9, 1 << 20} {
				res, err := Partition(rel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Data, wantData) || !slices.Equal(res.Offsets, wantOffsets) {
					t.Fatalf("%v, %d partitions, Threads %d: not the arrival-order partitioning",
						alg, parts, cfg.Threads)
				}
			}
		}
	}
}

func TestValidation(t *testing.T) {
	rel := genRel(t, workload.Linear, 100, 1)
	if _, err := Partition(rel, Config{NumPartitions: 100}); err == nil {
		t.Error("non-power-of-two fan-out accepted")
	}
	if _, err := Partition(rel, Config{NumPartitions: 1}); err == nil {
		t.Error("fan-out 1 accepted")
	}
	wide, _ := workload.NewRelation(workload.RowLayout, 16, 4)
	if _, err := Partition(wide, Config{NumPartitions: 8}); err == nil {
		t.Error("16-byte tuples accepted")
	}
	col, _ := workload.NewRelation(workload.ColumnLayout, 8, 4)
	if _, err := Partition(col, Config{NumPartitions: 8}); err == nil {
		t.Error("column layout accepted")
	}
	if _, err := Partition(rel, Config{NumPartitions: 8, Algorithm: Algorithm(9)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		rel := genRel(t, workload.Random, n, 3)
		for _, alg := range []Algorithm{Buffered, Naive} {
			res, err := Partition(rel, Config{NumPartitions: 64, Hash: true, Threads: 4, Algorithm: alg})
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, alg, err)
			}
			checkPartitioned(t, rel, &res, true)
		}
	}
}

func TestMoreThreadsThanTuples(t *testing.T) {
	rel := genRel(t, workload.Random, 5, 3)
	res, err := Partition(rel, Config{NumPartitions: 8, Hash: true, Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkPartitioned(t, rel, &res, true)
}

func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64, nRaw uint16, hash bool) bool {
		n := int(nRaw)%3000 + 1
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		rel, _ := workload.FromKeys(keys, 8)
		var results []*Result
		for _, alg := range []Algorithm{Buffered, Naive} {
			res, err := Partition(rel, Config{NumPartitions: 32, Hash: hash, Threads: 3, Algorithm: alg})
			if err != nil {
				return false
			}
			results = append(results, &res)
		}
		// All algorithms must produce identical partition boundaries and
		// identical per-partition multisets.
		for p := 0; p < 32; p++ {
			a := append([]uint64(nil), results[0].Partition(p)...)
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			for _, other := range results[1:] {
				b := append([]uint64(nil), other.Partition(p)...)
				if len(a) != len(b) {
					return false
				}
				sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestElapsedRecorded(t *testing.T) {
	rel := genRel(t, workload.Random, 50000, 23)
	res, err := Partition(rel, Config{NumPartitions: 256, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestAlgorithmString(t *testing.T) {
	if Buffered.String() != "buffered" || Naive.String() != "naive" {
		t.Error("algorithm strings")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Error("unknown algorithm string")
	}
}

// TestThreadCountIsClampedToTheInput: Threads is caller-controlled and every
// worker owns a histogram, cursors and a buffer line per partition, so an
// unclamped Threads: 1<<20 at fan-out 8192 asks for hundreds of gigabytes to
// partition a thousand tuples. The output does not depend on the thread
// count, so the count is a ceiling and scratch memory stays O(n + p).
func TestThreadCountIsClampedToTheInput(t *testing.T) {
	rel := genRel(t, workload.Random, 1000, 41)
	for _, alg := range []Algorithm{Buffered, Naive} {
		cfg := Config{NumPartitions: 8192, Hash: true, Algorithm: alg, Threads: 1}
		want, err := Partition(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Threads = 1 << 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Partition(rel, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Data, want.Data) || !slices.Equal(got.Offsets, want.Offsets) {
			t.Errorf("%v: Threads 1<<20 and Threads 1 partition differently", alg)
		}
		// One worker's scratch at fan-out 8192 is 8192 × (64 + 8 + 8) bytes.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Errorf("%v: Threads 1<<20 allocated %d bytes for 1000 tuples", alg, grew)
		}
	}
}

// TestHeapObjectsIndependentOfFanOut pins the flat per-worker state: a
// Buffered call makes the destination, the offsets and two worker×partition
// arrays (counters and cursors, buffer lines) whatever the fan-out, and
// returns its Result by value — a single-thread call runs both phases on the
// caller's goroutine and allocates nothing for them. With more workers the
// call adds one heap copy of its state with the barriers, and one goroutine
// closure per extra worker, which runs both of its phases. A call that
// reuses a Scratch does not make the two arrays. (It was two objects more
// per extra worker, and a phase copy with its WaitGroup per phase, while
// each phase started its own goroutines: 9 objects at two threads on a
// Scratch that recycles its outputs, against 2 now.)
func TestHeapObjectsIndependentOfFanOut(t *testing.T) {
	rel := genRel(t, workload.Random, 1<<16, 47)
	objects := func(sc *Scratch, parts, threads int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := sc.Partition(rel, Config{NumPartitions: parts, Hash: true, Threads: threads}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, threads := range []int{1, 2, 4} {
		limit := float64(4)
		if threads > 1 {
			limit += float64(1 + (threads - 1))
		}
		for _, parts := range []int{2, 256, 8192} {
			if got := objects(nil, parts, threads); got > limit {
				t.Errorf("fan-out %d, %d threads: %.0f heap objects per call, want ≤ %.0f", parts, threads, got, limit)
			}
			if got := objects(&Scratch{}, parts, threads); got > limit-2 {
				t.Errorf("fan-out %d, %d threads: %.0f heap objects per call on a reused Scratch, want ≤ %.0f", parts, threads, got, limit-2)
			}
		}
	}
}
