package hashjoin

import (
	"errors"
	"testing"

	"fpgapart/internal/joincore"
	"fpgapart/internal/simtrace"
	"fpgapart/workload"
)

// budgetRelations builds a skewed join input: R uniform, S Zipf(1.25) with
// one heavy-hitter key additionally covering ≥ 25% of the probe side.
func budgetRelations(t *testing.T, seed int64) (r, s *workload.Relation) {
	t.Helper()
	g := workload.NewGenerator(seed)
	r, err := g.Relation(workload.Random, 8, 4000)
	if err != nil {
		t.Fatal(err)
	}
	s, err = g.ZipfRelation(1.25, 1<<12, 8, 6000)
	if err != nil {
		t.Fatal(err)
	}
	hot := r.Key(0)
	for i := 0; i < s.NumTuples/4; i++ {
		s.SetTuple(i*2, hot, uint32(i))
	}
	return r, s
}

func TestBudgetedCPUJoinReproducesUnconstrained(t *testing.T) {
	r, s := budgetRelations(t, 42)
	opts := Options{Partitions: 8, Threads: 2, Hash: true}
	want, err := CPU(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Memory != nil {
		t.Fatalf("unbudgeted join reported memory stats: %+v", want.Memory)
	}
	buildBytes := int64(r.NumTuples) * joincore.BuildTupleBytes
	for _, pct := range []int64{100, 50, 25, 10} {
		opts.MemoryBudgetBytes = buildBytes * pct / 100
		got, err := CPU(r, s, opts)
		if err != nil {
			t.Fatalf("budget %d%%: %v", pct, err)
		}
		if got.Matches != want.Matches || got.Checksum != want.Checksum {
			t.Fatalf("budget %d%%: got %d/%#x, want %d/%#x", pct, got.Matches, got.Checksum, want.Matches, want.Checksum)
		}
		if got.Memory == nil || got.Memory.BudgetBytes != opts.MemoryBudgetBytes {
			t.Fatalf("budget %d%%: missing memory stats: %+v", pct, got.Memory)
		}
		if got.Memory.MaxDepth > joincore.DefaultMaxDepth+1 {
			t.Fatalf("budget %d%%: recursion depth %d unbounded", pct, got.Memory.MaxDepth)
		}
	}
	// At 10% of the build side the heavy-hitter partitions cannot fit.
	opts.MemoryBudgetBytes = buildBytes / 10
	got, err := CPU(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Memory.SpilledPartitions == 0 || got.Memory.SpilledBytes == 0 {
		t.Fatalf("10%% budget should spill, got %+v", got.Memory)
	}
}

func TestBudgetedHybridAndNonPartitionedReproduce(t *testing.T) {
	r, s := budgetRelations(t, 7)
	opts := Options{Partitions: 8, Threads: 2, Hash: true}
	want, err := CPU(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MemoryBudgetBytes = int64(r.NumTuples) * joincore.BuildTupleBytes / 8

	hy, err := Hybrid(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hy.Matches != want.Matches || hy.Checksum != want.Checksum {
		t.Fatalf("hybrid under budget: got %d/%#x, want %d/%#x", hy.Matches, hy.Checksum, want.Matches, want.Checksum)
	}

	np, err := NonPartitioned(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if np.Matches != want.Matches || np.Checksum != want.Checksum {
		t.Fatalf("nonpartitioned under budget: got %d/%#x, want %d/%#x", np.Matches, np.Checksum, want.Matches, want.Checksum)
	}
	if np.Memory == nil || np.Memory.BroadcastChunks < 2 {
		t.Fatalf("nonpartitioned at 1/8 budget should chunk its build, got %+v", np.Memory)
	}
}

func TestBudgetedJoinIsDeterministic(t *testing.T) {
	r, s := budgetRelations(t, 99)
	opts := Options{
		Partitions: 8, Threads: 1, Hash: true,
		MemoryBudgetBytes: int64(r.NumTuples) * joincore.BuildTupleBytes / 6,
	}
	first, err := CPU(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		opts.Threads = threads
		got, err := CPU(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matches != first.Matches || got.Checksum != first.Checksum {
			t.Fatalf("threads=%d changed the result", threads)
		}
		if *got.Memory != *first.Memory {
			t.Fatalf("threads=%d changed memory stats:\n%+v\nvs\n%+v", threads, got.Memory, first.Memory)
		}
	}
}

func TestFanOutValidation(t *testing.T) {
	g := workload.NewGenerator(1)
	r, err := g.Relation(workload.Random, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{0, 1, 3, 100} {
		opts := Options{Partitions: parts, Threads: 1}
		if _, err := CPU(r, r, opts); !errors.Is(err, ErrBadFanOut) {
			t.Fatalf("CPU with Partitions=%d: err = %v, want ErrBadFanOut", parts, err)
		}
		if _, err := Hybrid(r, r, opts); !errors.Is(err, ErrBadFanOut) {
			t.Fatalf("Hybrid with Partitions=%d: err = %v, want ErrBadFanOut", parts, err)
		}
	}
	// NonPartitioned has no fan-out and must keep accepting a zero value.
	if _, err := NonPartitioned(r, r, Options{Threads: 1}); err != nil {
		t.Fatalf("NonPartitioned: %v", err)
	}
}

// spanNames collects the names of ring events for one component.
func spanNames(sess *simtrace.Session, comp string) map[string]bool {
	names := map[string]bool{}
	for _, ev := range sess.Tracer.Events() {
		if ev.Comp == comp {
			names[ev.Name] = true
		}
	}
	return names
}

func TestPhaseSpansOnEveryBackend(t *testing.T) {
	r, s := budgetRelations(t, 5)
	run := func(name string, join func(opts Options) (*Result, error)) {
		sess := simtrace.NewSession()
		opts := Options{Partitions: 8, Threads: 1, Hash: true, Trace: sess}
		if _, err := join(opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := spanNames(sess, "join")
		for _, want := range []string{"build", "probe"} {
			if !got[want] {
				t.Fatalf("%s: missing join span %q (got %v)", name, want, got)
			}
		}
	}
	run("cpu", func(opts Options) (*Result, error) { return CPU(r, s, opts) })
	run("hybrid", func(opts Options) (*Result, error) { return Hybrid(r, s, opts) })
	run("nonpartitioned", func(opts Options) (*Result, error) { return NonPartitioned(r, s, opts) })
}

func TestMemoryDecisionsTraced(t *testing.T) {
	r, s := budgetRelations(t, 17)
	sess := simtrace.NewSession()
	opts := Options{
		Partitions: 8, Threads: 1, Hash: true, Trace: sess,
		MemoryBudgetBytes: int64(r.NumTuples) * joincore.BuildTupleBytes / 10,
	}
	res, err := CPU(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := spanNames(sess, "join.mem")
	if !got["spill"] {
		t.Fatalf("spill decisions not traced: %v (memory %+v)", got, res.Memory)
	}
	if res.Memory.Recursions > 0 && !got["recurse"] {
		t.Fatalf("recursions happened but were not traced: %v", got)
	}
	if res.Memory.Reversals > 0 && !got["reverse"] {
		t.Fatalf("reversals happened but were not traced: %v", got)
	}
	snap := sess.Metrics.Snapshot()
	for _, name := range []string{"join.mem_spilled_bytes", "join.mem_budget_bytes", "join.mem_max_depth"} {
		found := false
		for _, m := range snap {
			if m.Name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("metric %s missing from %v", name, snap)
		}
	}
}
