package hashjoin

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/partition"
	"fpgapart/workload"
)

var updateEmitLock = flag.Bool("update-emit-lock", false, "rewrite testdata/emit_order_lock.json")

// emitLockRecord is what the lock pins per configuration: the join's totals,
// a hash of every partition's (p, key, R payload, S payload) sequence in the
// order Emit delivered it, and a hash of the decision list.
type emitLockRecord struct {
	Name      string `json:"name"`
	Matches   int64  `json:"matches"`
	Checksum  uint64 `json:"checksum"`
	Emits     string `json:"emits_fnv64a"`
	Decisions string `json:"decisions_fnv64a"`
}

// TestEmitOrderLock locks what a consumer of joincore's Emit callback can
// observe — the order of matches within every partition, whichever side
// built, spilled or recursed — and every adaptive Decision, on CPU- and
// FPGA-written partitions without a budget, with every partition spilling,
// and on a skewed probe side. The file was generated before build and probe
// moved from slots to runs; a host-speed change never regenerates it.
func TestEmitOrderLock(t *testing.T) {
	const n, fan = 1 << 14, 64
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(float64(n) / float64(spec.TuplesR))
	uniform, err := spec.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := spec.GenerateSkewed(42, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Four R tuples per key, told apart by their payloads, so that the order
	// in which a probe walks a chain shows in the emitted sequence.
	for _, in := range []*workload.JoinInput{uniform, skewed} {
		for i := 0; i < in.R.NumTuples; i++ {
			in.R.SetTuple(i, in.R.Key(i&^3), uint32(i))
		}
	}
	// A quarter of one partition's build side: every uniform partition
	// spills and recurses, as in the benchmark's budgeted classes.
	budget := int64(spec.TuplesR/fan) * joincore.BuildTupleBytes / 4

	cpu, err := partition.NewCPU(partition.CPUOptions{Partitions: fan, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// PAD leaves dummy slots in every partition's last lines; HIST survives
	// the skewed input without falling back to the CPU.
	pad, err := partition.NewFPGA(partition.FPGAOptions{Partitions: fan, Hash: true, Format: partition.PadMode, PadFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := partition.NewFPGA(partition.FPGAOptions{Partitions: fan, Hash: true, Format: partition.HistMode, TupleWidth: 8})
	if err != nil {
		t.Fatal(err)
	}

	var got []emitLockRecord
	for _, c := range []struct {
		name   string
		p      partition.Partitioner
		in     *workload.JoinInput
		budget int64
	}{
		{"cpu_unbudgeted", cpu, uniform, 0},
		{"cpu_spill", cpu, uniform, budget},
		{"cpu_skew", cpu, skewed, budget},
		{"fpga_unbudgeted", pad, uniform, 0},
		{"fpga_spill", pad, uniform, budget},
		{"fpga_skew", hist, skewed, budget},
	} {
		pr, err := c.p.Partition(c.in.R)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := c.p.Partition(c.in.S)
		if err != nil {
			t.Fatal(err)
		}
		if pr.FPGAWritten() != (c.p != cpu) || ps.FPGAWritten() != (c.p != cpu) {
			t.Fatalf("%s: partitioning fell back", c.name)
		}
		// Emit calls are sequential per partition and partitions do not
		// share an element, so the per-partition hashes need no lock.
		perPart := make([]uint64, fan)
		for p := range perPart {
			perPart[p] = 14695981039346656037
		}
		mix := func(h, v uint64) uint64 {
			for i := 0; i < 8; i++ {
				h = (h ^ (v >> (8 * i) & 0xFF)) * 1099511628211
			}
			return h
		}
		res, stats, err := joincore.BudgetedBuildProbe(pr, ps, joincore.BudgetConfig{
			Budget:  membudget.New(c.budget),
			Spill:   &membudget.SpillStore{},
			Threads: 2,
			Emit: func(p int, key, rPay, sPay uint32) {
				perPart[p] = mix(mix(perPart[p], uint64(key)), uint64(rPay)|uint64(sPay)<<32)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		emits, decisions := fnv.New64a(), fnv.New64a()
		for p, h := range perPart {
			fmt.Fprintf(emits, "%d:%016x\n", p, h)
		}
		for _, d := range stats.Decisions {
			fmt.Fprintf(decisions, "%+v\n", d)
		}
		got = append(got, emitLockRecord{
			Name: c.name, Matches: res.Matches, Checksum: res.Checksum,
			Emits:     fmt.Sprintf("%016x", emits.Sum64()),
			Decisions: fmt.Sprintf("%016x/%d", decisions.Sum64(), len(stats.Decisions)),
		})
	}

	path := filepath.Join("testdata", "emit_order_lock.json")
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updateEmitLock {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("emit order or decisions changed:\n got %s\nwant %s", out, want)
	}
}
