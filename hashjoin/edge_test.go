package hashjoin

import (
	"errors"
	"strings"
	"testing"

	"fpgapart/internal/core"
	"fpgapart/internal/joincore"
	"fpgapart/partition"
	"fpgapart/workload"
)

func TestJoinEmptyRelations(t *testing.T) {
	empty, _ := workload.NewRelation(workload.RowLayout, 8, 0)
	one, _ := workload.FromKeys([]uint32{7}, 8)
	cases := []struct{ r, s *workload.Relation }{
		{empty, empty},
		{empty, one},
		{one, empty},
	}
	for i, c := range cases {
		cpu, err := CPU(c.r, c.s, Options{Partitions: 16, Hash: true, Threads: 1})
		if err != nil {
			t.Fatalf("case %d cpu: %v", i, err)
		}
		if cpu.Matches != 0 {
			t.Errorf("case %d: %d matches on empty side", i, cpu.Matches)
		}
		np, err := NonPartitioned(c.r, c.s, Options{Threads: 1})
		if err != nil {
			t.Fatalf("case %d nopart: %v", i, err)
		}
		if np.Matches != 0 {
			t.Errorf("case %d nopart: %d matches", i, np.Matches)
		}
	}
}

// TestHybridEmptyRelations covers the previously untested empty-relation
// path through the FPGA partitioner: an empty side must partition cleanly
// and join to zero matches, on every side combination.
func TestHybridEmptyRelations(t *testing.T) {
	empty, _ := workload.NewRelation(workload.RowLayout, 8, 0)
	one, _ := workload.FromKeys([]uint32{7}, 8)
	cases := []struct{ r, s *workload.Relation }{
		{empty, empty},
		{empty, one},
		{one, empty},
	}
	for i, c := range cases {
		res, err := Hybrid(c.r, c.s, Options{Partitions: 16, Hash: true, Threads: 1})
		if err != nil {
			t.Fatalf("case %d hybrid: %v", i, err)
		}
		if res.Matches != 0 {
			t.Errorf("case %d hybrid: %d matches on empty side", i, res.Matches)
		}
	}
}

// TestHybridDummyKeyExact is the regression test for the dummy-key drop: a
// tuple whose key equals the FPGA's dummy key reads back as flush padding,
// so the FPGA-partitioned join silently lost its matches. The hybrid join
// must now detect the collision, repartition that side on the CPU, and
// agree with the pure-CPU join on both count and checksum.
func TestHybridDummyKeyExact(t *testing.T) {
	rKeys := []uint32{core.DefaultDummyKey, 1, 2, core.DefaultDummyKey, 3}
	sKeys := []uint32{core.DefaultDummyKey, core.DefaultDummyKey, 2, 9}
	r, _ := workload.FromKeys(rKeys, 8)
	s, _ := workload.FromKeys(sKeys, 8)
	opts := Options{Partitions: 8, Hash: true, Threads: 1}

	want, err := CPU(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	// dummy×dummy 2×2 + key 2 once = 5.
	if want.Matches != 5 {
		t.Fatalf("cpu reference: %d matches, want 5", want.Matches)
	}
	got, err := Hybrid(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches {
		t.Fatalf("hybrid join: %d matches, cpu finds %d", got.Matches, want.Matches)
	}
	if got.Checksum != want.Checksum {
		t.Fatalf("hybrid checksum %#x, cpu %#x", got.Checksum, want.Checksum)
	}
	if !got.DummyKeyRepartition {
		t.Error("DummyKeyRepartition not reported")
	}

	// A collision-free input must not trigger the repartition.
	cleanR, _ := workload.FromKeys([]uint32{1, 2, 3}, 8)
	res, err := Hybrid(cleanR, cleanR, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DummyKeyRepartition {
		t.Error("DummyKeyRepartition reported without a collision")
	}
}

func TestJoinSelfJoin(t *testing.T) {
	rel, err := workload.NewGenerator(31).Relation(workload.Linear, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CPU(rel, rel, Options{Partitions: 64, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Unique keys: self-join matches every tuple exactly once.
	if res.Matches != 4096 {
		t.Fatalf("self-join matches = %d", res.Matches)
	}
}

func TestJoinAllDuplicates(t *testing.T) {
	keys := make([]uint32, 64)
	for i := range keys {
		keys[i] = 5
	}
	rel, _ := workload.FromKeys(keys, 8)
	res, err := CPU(rel, rel, Options{Partitions: 8, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 64*64 {
		t.Fatalf("cartesian duplicate join: %d matches, want 4096", res.Matches)
	}
}

// TestGuardCatchesASingleThreadedJoinPanic: Threads: 1 runs joincore's
// executor on the calling goroutine, so the guard the entry points defer
// turns a panic inside it into ErrSimulatorFault. (On a goroutine of the
// executor's own, as at Threads > 1, no caller-side guard could.)
func TestGuardCatchesASingleThreadedJoinPanic(t *testing.T) {
	rel, err := workload.NewGenerator(5).Relation(workload.Linear, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.NewCPU(partition.CPUOptions{Partitions: 8, Hash: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := p.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	err = func() (err error) {
		defer guardSimulator(&err)
		_, _, err = joincore.BudgetedBuildProbe(parts, parts, joincore.BudgetConfig{
			Threads: 1,
			Emit:    func(int, uint32, uint32, uint32) { panic("membudget: ledger corrupt") },
		})
		return err
	}()
	if !errors.Is(err, ErrSimulatorFault) || !strings.Contains(err.Error(), "ledger corrupt") {
		t.Errorf("guarded single-threaded join returned %v, want ErrSimulatorFault carrying the panic", err)
	}
}
