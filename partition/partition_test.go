package partition

import (
	"errors"
	"maps"
	"sort"
	"strings"
	"testing"

	"fpgapart/codec"
	"fpgapart/workload"
)

func genRel(t *testing.T, n int, seed int64) *workload.Relation {
	t.Helper()
	rel, err := workload.NewGenerator(seed).Relation(workload.Random, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// multiset collects all (key,payload) pairs of a result, sorted.
func multiset(r *Result) []uint64 {
	var all []uint64
	for p := 0; p < r.NumPartitions(); p++ {
		r.Each(p, func(k, pay uint32) {
			all = append(all, uint64(k)<<32|uint64(pay))
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func TestCPUAndFPGABackendsAgree(t *testing.T) {
	rel := genRel(t, 20000, 3)
	cpu, err := NewCPU(CPUOptions{Partitions: 128, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := NewFPGA(FPGAOptions{Partitions: 128, Hash: true, Format: HistMode})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cpu.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fpga.Partition(rel.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if cr.FPGAWritten() || !fr.FPGAWritten() {
		t.Error("FPGAWritten flags wrong")
	}
	if cr.TotalTuples() != 20000 || fr.TotalTuples() != 20000 {
		t.Fatalf("totals: %d %d", cr.TotalTuples(), fr.TotalTuples())
	}
	for p := 0; p < 128; p++ {
		if cr.Count(p) != fr.Count(p) {
			t.Fatalf("partition %d: CPU %d tuples, FPGA %d", p, cr.Count(p), fr.Count(p))
		}
	}
	cm, fm := multiset(cr), multiset(fr)
	for i := range cm {
		if cm[i] != fm[i] {
			t.Fatal("backends produced different tuple multisets")
		}
	}
}

func TestSlotViewSkipsDummies(t *testing.T) {
	rel := genRel(t, 10007, 5)
	fpga, err := NewFPGA(FPGAOptions{Partitions: 64, Hash: true, Format: HistMode})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpga.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	var valid int64
	for p := 0; p < 64; p++ {
		slots := res.SlotCount(p)
		if slots < int(res.Count(p)) {
			t.Fatalf("partition %d: %d slots < %d tuples", p, slots, res.Count(p))
		}
		words, stride, dummy, hasDummy := res.Run(p, 0)
		if !hasDummy || len(words) != slots*stride {
			t.Fatalf("partition %d: run of %d words, stride %d, dummy %v for %d slots", p, len(words), stride, hasDummy, slots)
		}
		for i := 0; i < len(words); i += stride {
			if uint32(words[i]) != dummy {
				valid++
			}
		}
	}
	if valid != 10007 {
		t.Fatalf("valid slots = %d, want 10007", valid)
	}
}

func TestPadOverflowFallsBackToCPU(t *testing.T) {
	g := workload.NewGenerator(7)
	rel, err := g.ZipfRelation(1.0, 50000, 8, 30000)
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := NewFPGA(FPGAOptions{Partitions: 256, Hash: true, Format: PadMode, PadFraction: 0.15, FallbackThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpga.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack() {
		t.Fatal("expected CPU fallback on skewed input")
	}
	if res.FPGAWritten() {
		t.Error("fallback result mislabeled")
	}
	if res.TotalTuples() != 30000 {
		t.Errorf("TotalTuples = %d", res.TotalTuples())
	}
	if res.Stats.Cycles == 0 {
		t.Error("aborted attempt's cycles not recorded")
	}
}

func TestPadOverflowWithoutFallback(t *testing.T) {
	g := workload.NewGenerator(9)
	rel, err := g.ZipfRelation(1.0, 50000, 8, 30000)
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := NewFPGA(FPGAOptions{Partitions: 256, Hash: true, Format: PadMode, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fpga.Partition(rel); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

func TestColumnStoreMode(t *testing.T) {
	rel := genRel(t, 15000, 11)
	col := rel.ToColumns()
	fpga, err := NewFPGA(FPGAOptions{Partitions: 64, Hash: true, Format: PadMode, Layout: ColumnStore, PadFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpga.Partition(col)
	if err != nil {
		t.Fatal(err)
	}
	// Payloads are VRIDs; materialize and verify.
	n := 0
	for p := 0; p < 64; p++ {
		res.Each(p, func(k, vrid uint32) {
			if col.Keys[vrid] != k {
				t.Fatalf("VRID %d maps to %#x, want %#x", vrid, col.Keys[vrid], k)
			}
			n++
		})
	}
	if n != 15000 {
		t.Fatalf("materialized %d tuples", n)
	}
}

// TestPartitionKeepsEveryTuple sends relations whose keys collide with the
// circuit's dummy key, or are 0, through Partition on every backend — the
// circuit in all four modes — and, as an RLE column, through FPGACompressed
// in both formats: the (key, payload) multiset a consumer reads back must be
// the input's. The payload is the row index, which is also what VRID mode
// emits. A circuit run over the dummy key falls back to the CPU and is
// charged the circuit run too.
func TestPartitionKeepsEveryTuple(t *testing.T) {
	const n, dummy = 1000, 0xFFFFFFFF
	type backend struct {
		p    Partitioner
		vrid bool
	}
	cpu, err := NewCPU(CPUOptions{Partitions: 16, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	backends := []backend{{cpu, false}}
	for _, format := range []Format{HistMode, PadMode} {
		for _, layout := range []Layout{RowStore, ColumnStore} {
			fpga, err := NewFPGA(FPGAOptions{Partitions: 16, Hash: true, Format: format, Layout: layout, FallbackThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			backends = append(backends, backend{fpga, layout == ColumnStore})
		}
	}
	for _, tc := range []struct {
		name  string
		keyOf func(i int) uint32
	}{
		{"all dummy", func(int) uint32 { return dummy }},
		{"some dummy", func(i int) uint32 {
			if i%5 == 0 {
				return dummy
			}
			return uint32(i % 7)
		}},
		{"key 0", func(i int) uint32 {
			if i%3 == 0 {
				return 0
			}
			return uint32(i)
		}},
	} {
		rows, err := workload.NewRelation(workload.RowLayout, 8, n)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]int{}
		for i := 0; i < n; i++ {
			rows.SetTuple(i, tc.keyOf(i), uint32(i))
			want[uint64(tc.keyOf(i))<<32|uint64(i)]++
		}
		hasDummy := tc.keyOf(0) == dummy // each relation with the dummy key starts with it
		check := func(name string, circuit bool, res *Result, err error) {
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, name, err)
			}
			got := map[uint64]int{}
			for q := 0; q < res.NumPartitions(); q++ {
				res.Each(q, func(k, pay uint32) { got[uint64(k)<<32|uint64(pay)]++ })
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s, %s: read back %d distinct (key, payload) pairs, want %d; the multisets differ",
					tc.name, name, len(got), len(want))
			}
			if circuit && hasDummy && (!res.FellBack() || res.Stats.Elapsed <= 0 || res.Elapsed() < res.Stats.Elapsed) {
				t.Errorf("%s, %s: FellBack %v, elapsed %v for a circuit run of %v; want a fallback charged the circuit run",
					tc.name, name, res.FellBack(), res.Elapsed(), res.Stats.Elapsed)
			}
		}
		for _, b := range backends {
			rel := rows.Clone()
			if b.vrid {
				rel = rows.ToColumns()
			}
			res, err := b.p.Partition(rel)
			check(b.p.Name(), b.p != cpu, res, err)
		}
		for format, name := range map[Format]string{HistMode: "HIST", PadMode: "PAD"} {
			res, err := FPGACompressed(FPGAOptions{Partitions: 16, Hash: true, Format: format, Layout: ColumnStore, FallbackThreads: 2},
				codec.CompressRLE(rows.ToColumns().Keys))
			check("FPGACompressed "+name, true, res, err)
		}
	}
}

// TestDummyKeyWithoutFallback: with the fallback disabled, a circuit run
// over the dummy key is an error that carries the run's statistics and
// unwraps to ErrDummyKey.
func TestDummyKeyWithoutFallback(t *testing.T) {
	rel, err := workload.FromKeys([]uint32{1, 2, 0xFFFFFFFF, 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := NewFPGA(FPGAOptions{Partitions: 16, Hash: true, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fpga.Partition(rel)
	var fb *FallbackError
	if !errors.As(err, &fb) || !errors.Is(err, ErrDummyKey) || errors.Is(err, ErrOverflow) || fb.Stats.Cycles == 0 {
		t.Fatalf("err = %v, want a FallbackError for ErrDummyKey with the run's cycles", err)
	}
}

func TestNames(t *testing.T) {
	cpu, _ := NewCPU(CPUOptions{Partitions: 8, Hash: true})
	if cpu.Name() != "cpu-hash-buffered" {
		t.Errorf("cpu name = %q", cpu.Name())
	}
	naive, _ := NewCPU(CPUOptions{Partitions: 8, Naive: true})
	if naive.Name() != "cpu-radix-naive" {
		t.Errorf("naive name = %q", naive.Name())
	}
	fpga, _ := NewFPGA(FPGAOptions{Partitions: 8, Format: PadMode, Layout: ColumnStore})
	if fpga.Name() != "fpga-PAD/VRID" {
		t.Errorf("fpga name = %q", fpga.Name())
	}
}

func TestOptionValidation(t *testing.T) {
	cpu, _ := NewCPU(CPUOptions{Partitions: 100})
	if _, err := cpu.Partition(genRel(t, 64, 1)); err == nil {
		t.Error("non-power-of-two CPU fan-out accepted")
	}
	if _, err := NewFPGA(FPGAOptions{Partitions: 100}); err == nil {
		t.Error("non-power-of-two fan-out accepted")
	}
	if _, err := NewFPGA(FPGAOptions{Partitions: 64, TupleWidth: 12}); err == nil {
		t.Error("bad tuple width accepted")
	}
}

// TestParseMode: the CLIs' -format/-layout spellings map to the four modes,
// and anything else is rejected with the accepted set in the message.
func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		format, layout string
		f              Format
		l              Layout
		errHas         string
	}{
		{"hist", "rid", HistMode, RowStore, ""},
		{"pad", "rid", PadMode, RowStore, ""},
		{"hist", "vrid", HistMode, ColumnStore, ""},
		{"pad", "vrid", PadMode, ColumnStore, ""},
		{"histt", "rid", 0, 0, `unknown format "histt" (want hist or pad)`},
		{"", "rid", 0, 0, `unknown format "" (want hist or pad)`},
		{"PAD", "rid", 0, 0, "want hist or pad"},
		{"pad", "column", 0, 0, `unknown layout "column" (want rid or vrid)`},
		{"pad", "", 0, 0, "want rid or vrid"},
	} {
		f, l, err := ParseMode(c.format, c.layout)
		switch {
		case c.errHas == "" && (err != nil || f != c.f || l != c.l):
			t.Errorf("ParseMode(%q, %q) = %v, %v, %v; want %v, %v", c.format, c.layout, f, l, err, c.f, c.l)
		case c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)):
			t.Errorf("ParseMode(%q, %q): err = %v, want one naming %q", c.format, c.layout, err, c.errHas)
		}
	}
}

func TestFPGAStatsExposed(t *testing.T) {
	rel := genRel(t, 8000, 13)
	fpga, _ := NewFPGA(FPGAOptions{Partitions: 64, Hash: true, Format: HistMode})
	res, err := fpga.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Cycles == 0 || s.LinesRead == 0 || s.LinesWritten == 0 {
		t.Errorf("stats not populated: %+v", s)
	}
	if s.StallsHazard != 0 {
		t.Errorf("hazard stalls = %d with forwarding enabled", s.StallsHazard)
	}
	if s.HistogramCycles == 0 {
		t.Error("histogram cycles missing in HIST mode")
	}
}

func TestInterferedSlower(t *testing.T) {
	rel := genRel(t, 100000, 17)
	alone, _ := NewFPGA(FPGAOptions{Partitions: 256, Hash: true, Format: PadMode, PadFraction: 0.5})
	inter, _ := NewFPGA(FPGAOptions{Partitions: 256, Hash: true, Format: PadMode, PadFraction: 0.5, Interfered: true})
	ra, err := alone.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := inter.Partition(rel.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if ri.Elapsed() <= ra.Elapsed() {
		t.Errorf("interfered run (%v) not slower than alone (%v)", ri.Elapsed(), ra.Elapsed())
	}
}
