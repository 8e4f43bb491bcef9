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

// TestJoinKeepsEveryTuple is the hashjoin row of the sentinel audit:
// relations keyed all or partly with the circuit's dummy key, or all 0, join
// to the matches and checksum of a map reference on every backend — CPU,
// Hybrid in all four circuit modes, NonPartitioned. A tuple the circuit
// wrote with the dummy key reads back as flush padding, so Hybrid
// repartitions that side on the CPU and reports DummyKeyRepartition; an
// input without the dummy key does not.
func TestJoinKeepsEveryTuple(t *testing.T) {
	const n = 200
	type backend struct {
		name string
		vrid bool
		run  func(r, s *workload.Relation) (*Result, error)
	}
	backends := []backend{
		{"cpu", false, func(r, s *workload.Relation) (*Result, error) {
			return CPU(r, s, Options{Partitions: 16, Hash: true, Threads: 1})
		}},
		{"nonpartitioned", false, func(r, s *workload.Relation) (*Result, error) {
			return NonPartitioned(r, s, Options{Threads: 1})
		}},
	}
	for _, format := range []string{"HIST", "PAD"} {
		for _, layout := range []string{"RID", "VRID"} {
			opts := Options{Partitions: 16, Hash: true, Threads: 1, PadFraction: 0.5}
			if format == "PAD" {
				opts.Format = partition.PadMode
			}
			if layout == "VRID" {
				opts.Layout = partition.ColumnStore
			}
			backends = append(backends, backend{"hybrid " + format + "/" + layout, layout == "VRID",
				func(r, s *workload.Relation) (*Result, error) { return Hybrid(r, s, opts) }})
		}
	}
	for _, tc := range []struct {
		name  string
		keyOf func(i int) uint32
	}{
		{"all-dummy", func(int) uint32 { return core.DefaultDummyKey }},
		{"some-dummy", func(i int) uint32 {
			if i%3 == 0 {
				return core.DefaultDummyKey
			}
			return uint32(i % 11)
		}},
		{"key-0", func(int) uint32 { return 0 }},
		{"no-dummy", func(i int) uint32 { return uint32(i % 11) }},
	} {
		// R holds n tuples, S 2n; the payload is the row index, which is
		// also what VRID mode emits.
		var sides [2][]uint32
		for side := range sides {
			for i := 0; i < (side+1)*n; i++ {
				sides[side] = append(sides[side], tc.keyOf(i))
			}
		}
		byKey := map[uint32][]uint64{}
		for i, k := range sides[0] {
			byKey[k] = append(byKey[k], uint64(i))
		}
		var wantMatches int64
		var wantChecksum uint64
		for i, k := range sides[1] {
			for _, pay := range byKey[k] {
				wantMatches++
				wantChecksum += pay + uint64(i)
			}
		}
		r, _ := workload.FromKeys(sides[0], 8)
		s, _ := workload.FromKeys(sides[1], 8)
		for _, b := range backends {
			br, bs := r, s
			if b.vrid {
				br, bs = r.ToColumns(), s.ToColumns()
			}
			got, err := b.run(br, bs)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, b.name, err)
			}
			if got.Matches != wantMatches || got.Checksum != wantChecksum {
				t.Errorf("%s, %s: %d matches (checksum %#x), reference %d (%#x)",
					tc.name, b.name, got.Matches, got.Checksum, wantMatches, wantChecksum)
			}
			// A PAD run the skew overflowed fell back to the CPU before any
			// dummy key could be lost.
			circuit := strings.HasPrefix(b.name, "hybrid") && !got.FellBack
			if got.DummyKeyRepartition != (circuit && byKey[core.DefaultDummyKey] != nil) {
				t.Errorf("%s, %s: DummyKeyRepartition = %v", tc.name, b.name, got.DummyKeyRepartition)
			}
		}
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
