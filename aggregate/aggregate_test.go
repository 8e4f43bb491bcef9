package aggregate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgapart/partition"
	"fpgapart/workload"
)

// refAggregate computes the expected groups with a plain map.
func refAggregate(rel *workload.Relation) map[uint32]Group {
	ref := map[uint32]Group{}
	for i := 0; i < rel.NumTuples; i++ {
		k, p := rel.Key(i), rel.Payload(i)
		g, ok := ref[k]
		if !ok {
			g = Group{Key: k, Min: p, Max: p}
		}
		g.Count++
		g.Sum += uint64(p)
		if p < g.Min {
			g.Min = p
		}
		if p > g.Max {
			g.Max = p
		}
		ref[k] = g
	}
	return ref
}

func assertMatchesRef(t *testing.T, res *Result, ref map[uint32]Group, n int) {
	t.Helper()
	if len(res.Groups) != len(ref) {
		t.Fatalf("%d groups, want %d", len(res.Groups), len(ref))
	}
	var total int64
	var prev int64 = -1
	for _, g := range res.Groups {
		if int64(g.Key) <= prev {
			t.Fatal("groups not sorted by key")
		}
		prev = int64(g.Key)
		want := ref[g.Key]
		if g != want {
			t.Fatalf("group %d: got %+v, want %+v", g.Key, g, want)
		}
		total += g.Count
	}
	if total != int64(n) {
		t.Fatalf("counts sum to %d, want %d", total, n)
	}
}

func zipfRel(t *testing.T, n, alphabet int, factor float64) *workload.Relation {
	t.Helper()
	rel, err := workload.NewGenerator(5).ZipfRelation(factor, alphabet, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestCPUAggregationMatchesReference(t *testing.T) {
	rel := zipfRel(t, 30000, 2000, 0.8)
	res, err := CPU(rel, Options{Partitions: 64, Hash: true, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, res, refAggregate(rel), 30000)
	if res.PartitionTime <= 0 || res.AggregateTime <= 0 {
		t.Error("missing phase times")
	}
	if res.CoherencePenalized {
		t.Error("CPU run penalized")
	}
}

func TestHybridAggregationMatchesCPU(t *testing.T) {
	rel := zipfRel(t, 20000, 1000, 0.5)
	cpu, err := CPU(rel, Options{Partitions: 128, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Hybrid(rel, Options{Partitions: 128, Hash: true, Threads: 2, Format: partition.HistMode})
	if err != nil {
		t.Fatal(err)
	}
	if !hyb.CoherencePenalized {
		t.Error("hybrid aggregation should carry the sequential snoop penalty")
	}
	if len(cpu.Groups) != len(hyb.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(cpu.Groups), len(hyb.Groups))
	}
	for i := range cpu.Groups {
		if cpu.Groups[i] != hyb.Groups[i] {
			t.Fatalf("group %d differs: %+v vs %+v", i, cpu.Groups[i], hyb.Groups[i])
		}
	}
}

func TestGlobalBaselineMatches(t *testing.T) {
	rel := zipfRel(t, 15000, 500, 1.0)
	global, err := Global(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, global, refAggregate(rel), 15000)
}

func TestHybridPadFallbackStillCorrect(t *testing.T) {
	// Heavy skew overflows PAD; the fallback must keep results exact.
	rel := zipfRel(t, 30000, 30000, 1.2)
	res, err := Hybrid(rel, Options{Partitions: 256, Hash: true, Threads: 2,
		Format: partition.PadMode, PadFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, res, refAggregate(rel), 30000)
}

func TestFindGroup(t *testing.T) {
	rel, err := workload.FromKeys([]uint32{5, 5, 9, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CPU(rel, Options{Partitions: 4, Hash: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := res.Find(5)
	if !ok || g.Count != 3 {
		t.Fatalf("Find(5) = %+v, %v", g, ok)
	}
	if _, ok := res.Find(6); ok {
		t.Error("Find(6) found a missing key")
	}
}

func TestAvg(t *testing.T) {
	g := Group{Count: 4, Sum: 10}
	if g.Avg() != 2.5 {
		t.Errorf("Avg = %v", g.Avg())
	}
	if (Group{}).Avg() != 0 {
		t.Error("empty group Avg should be 0")
	}
}

func TestSingleGroup(t *testing.T) {
	keys := make([]uint32, 1000)
	for i := range keys {
		keys[i] = 7
	}
	rel, _ := workload.FromKeys(keys, 8)
	res, err := CPU(rel, Options{Partitions: 16, Hash: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Count != 1000 {
		t.Fatalf("groups: %+v", res.Groups)
	}
}

func TestEmptyRelation(t *testing.T) {
	rel, _ := workload.NewRelation(workload.RowLayout, 8, 0)
	res, err := CPU(rel, Options{Partitions: 16, Hash: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("groups on empty input: %d", len(res.Groups))
	}
}

func TestPropertyPartitionedEqualsGlobal(t *testing.T) {
	f := func(seed int64, nRaw uint16, alphabetRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		alphabet := int(alphabetRaw)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(alphabet)) + 1
		}
		rel, err := workload.FromKeys(keys, 8)
		if err != nil {
			return false
		}
		part, err := CPU(rel, Options{Partitions: 32, Hash: true, Threads: 2})
		if err != nil {
			return false
		}
		global, err := Global(rel, Options{})
		if err != nil {
			return false
		}
		if len(part.Groups) != len(global.Groups) {
			return false
		}
		for i := range part.Groups {
			if part.Groups[i] != global.Groups[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	rel, _ := workload.FromKeys([]uint32{1, 2}, 8)
	if _, err := CPU(rel, Options{Partitions: 3}); err == nil {
		t.Error("bad fan-out accepted")
	}
	if _, err := Hybrid(rel, Options{Partitions: 0}); err == nil {
		t.Error("zero fan-out accepted")
	}
}

// TestDummyKeyGroupSurvives guards the group whose key equals the circuit's
// dummy key (0xFFFFFFFF): the FPGA's output encoding cannot represent such
// tuples — they read back as flush padding — so the hybrid path must get them
// from the exact CPU repartitioning. CPU, Hybrid and Global agree on the
// group set, also for a relation of nothing but dummy keys.
func TestDummyKeyGroupSurvives(t *testing.T) {
	const dummy = 0xFFFFFFFF
	for _, tc := range []struct {
		name  string
		keyOf func(i int) uint32
	}{
		{"every fifth key", func(i int) uint32 {
			if i%5 == 0 {
				return dummy
			}
			return uint32(i % 7)
		}},
		{"only dummy keys", func(int) uint32 { return dummy }},
	} {
		const n = 1024
		rel, err := workload.NewRelation(workload.RowLayout, 8, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rel.SetTuple(i, tc.keyOf(i), uint32(i))
		}
		ref := refAggregate(rel)
		opts := Options{Partitions: 16, Threads: 2, Hash: true}
		for name, run := range map[string]func(*workload.Relation, Options) (*Result, error){
			"CPU": CPU, "Hybrid": Hybrid, "Global": Global,
		} {
			res, err := run(rel, opts)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, name, err)
			}
			if _, ok := res.Find(dummy); !ok {
				t.Errorf("%s, %s: the dummy-key group is missing (%d groups, want %d)", tc.name, name, len(res.Groups), len(ref))
				continue
			}
			assertMatchesRef(t, res, ref, n)
		}
	}
}
