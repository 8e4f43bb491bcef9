package core

import (
	"testing"

	"fpgapart/platform"
	"fpgapart/workload"
)

// hostCase is one cell of the host-cost measurements: the benchmark's steady
// classes at its partition density (64 tuples each) per mode × width, the
// fan-out whose bank lines and output stay in cache (what is left is control
// flow), and the serving stack's job (160 tuples over 64 partitions: mostly
// flush).
type hostCase struct {
	name   string
	format Format
	layout Layout
	width  int
	// tuples and parts, when set, replace BenchmarkCircuitPartition's 2^19
	// tuples of 8 bytes over tuples/64 partitions.
	tuples, parts int
}

var hostCases = []hostCase{
	{name: "pad_rid_w8", format: PAD, layout: RID, width: 8},
	{name: "hist_rid_w8", format: HIST, layout: RID, width: 8},
	{name: "pad_vrid_w8", format: PAD, layout: VRID, width: 8},
	{name: "hist_vrid_w8", format: HIST, layout: VRID, width: 8},
	{name: "hist_rid_w16", format: HIST, layout: RID, width: 16},
	{name: "hist_rid_w64", format: HIST, layout: RID, width: 64},
	{name: "pad_rid_fan16", format: PAD, layout: RID, width: 8, parts: 16},
	{name: "pad_rid_job160", format: PAD, layout: RID, width: 8, tuples: 160, parts: 64},
	{name: "hist_rid_job160", format: HIST, layout: RID, width: 8, tuples: 160, parts: 64},
}

func (hc hostCase) build(tb testing.TB, tuples int) (*Circuit, *workload.Relation) {
	tb.Helper()
	rel := genRelation(tb, workload.Random, hc.width, tuples, 42)
	if hc.layout == VRID {
		rel = rel.ToColumns()
	}
	parts := tuples / 64
	if hc.parts != 0 {
		parts = hc.parts
	}
	plat := platform.XeonFPGA()
	c, err := NewCircuit(Config{
		NumPartitions: parts, TupleWidth: hc.width, Hash: true,
		Format: hc.format, Layout: hc.layout, PadFraction: 1,
	}, plat.FPGAClockHz, plat.FPGAAlone)
	if err != nil {
		tb.Fatal(err)
	}
	return c, rel
}

// BenchmarkCircuitPartition is the layer number of the cycle simulator: host
// nanoseconds per simulated cycle and per input tuple, per hostCase, at the
// benchmark's scale (2^19 tuples over 8192 partitions; 2^16 for 64-byte
// tuples) unless the case names its own. Every output is recycled, as a
// serving slot's are, so allocs/op is recycledObjects.
//
//	go test ./internal/core -run '^$' -bench CircuitPartition -benchtime 5x
func BenchmarkCircuitPartition(b *testing.B) {
	for _, hc := range hostCases {
		b.Run(hc.name, func(b *testing.B) {
			tuples := (1 << 19) * 8 / hc.width
			if hc.tuples != 0 {
				tuples = hc.tuples
			}
			c, rel := hc.build(b, tuples)
			b.ReportAllocs()
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				out, st, err := c.Partition(rel)
				if err != nil {
					b.Fatal(err)
				}
				c.Recycle(out)
				cycles = st.Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles*int64(b.N)), "ns/cycle")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples*b.N), "ns/tuple")
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// runObjects is how many heap objects an untraced Partition makes on a
// circuit that has run before, whatever the lanes, input size or fan-out: one
// slab each for the destination bookkeeping, the fill-rate BRAMs (the
// combiners' and the placement side's) and the bank lines, the Output and its
// lines, and — when the run places on a second goroutine — that goroutine's
// closure. (It was 23 + 7 per lane — 79 at eight lanes — while every run
// rebuilt the datapath, 12 while every run built a shared-memory pool,
// region, page array and snoop-filter span, and 8 while every run allocated
// its run state and its Stats; the benchmark's core.mallocs_per_op is this
// number.)
const runObjects = 6

// recycledObjects is runObjects once every output goes back to the circuit
// (Recycle): the lines and the bookkeeping slab are the recycled outputs',
// the Output is the recycled one, and the bank lines and the BRAM slab are
// the circuit's, which leaves the goroutine's closure: 1 with the placement
// on its own goroutine, 0 inline. (It was 2 while every run allocated its
// Output, and 5 while the circuit kept neither its run state nor its BRAM
// slab and returned its Stats on the heap.)
const recycledObjects = 1

// TestPartitionAllocations guards the per-run fixed cost and the pass loops:
// the second and later runs of a circuit make runObjects heap objects, or
// recycledObjects once each output is recycled before the next run (the
// first run after the first Recycle still builds the bank and the BRAM slab
// the circuit then keeps), one fewer when the placement runs inline, and
// not one more when the three passes run sixteen times as many cycles and
// the placement runs on its own goroutine.
func TestPartitionAllocations(t *testing.T) {
	for _, hc := range hostCases {
		for _, recycle := range []bool{false, true} {
			perOp := func(tuples int) float64 {
				c, rel := hc.build(t, tuples)
				run := func() {
					out, _, err := c.Partition(rel)
					if err != nil {
						t.Fatal(err)
					}
					if recycle {
						c.Recycle(out)
					}
				}
				run()
				n := testing.AllocsPerRun(3, run)
				if async := c.pl.full != nil; async != (tuples > 1<<12) {
					t.Errorf("%s, %d tuples: placed on a second goroutine %t", hc.name, tuples, async)
				}
				return n
			}
			small, large := perOp(1<<12), perOp(1<<16)
			want := runObjects
			if recycle {
				want = recycledObjects
			}
			if small > float64(want-1) || large > float64(want) {
				t.Errorf("%s, recycled %t: %.0f heap objects per Partition placed inline and %.0f on a second goroutine, want at most %d and %d", hc.name, recycle, small, large, want-1, want)
			}
			// The goroutine's closure is one more object, and the runtime adds
			// one of its own at some heap sizes; an allocation per cycle would
			// add thousands.
			if large > small+2 {
				t.Errorf("%s, recycled %t: %.0f heap objects at 2^16 tuples, %.0f at 2^12: the pass loops allocate", hc.name, recycle, large, small)
			}
		}
	}
}

// circuitObjects is how many heap objects NewCircuit makes, whatever the
// lane count: the Circuit, its QPI end-point, the hash pipeline's stages,
// the combiners' slab and the pointers the cycle loops reach them by, and
// the one slab every FIFO ring is carved from. (It was 8 + 3 per lane — 32
// at eight lanes — while every combiner and every FIFO was an object of its
// own with a ring of its own.)
const circuitObjects = 6

// TestNewCircuitAllocations pins what building a circuit costs at one, two,
// four and eight lanes: each serving slot builds one, and reconfigures it
// in place for every other configuration (TestReconfigureAllocations).
func TestNewCircuitAllocations(t *testing.T) {
	plat := platform.XeonFPGA()
	for _, width := range []int{64, 32, 16, 8} {
		cfg := Config{NumPartitions: 64, TupleWidth: width, Hash: true, Format: PAD, Layout: RID}
		var c *Circuit
		n := testing.AllocsPerRun(10, func() {
			var err error
			if c, err = NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone); err != nil {
				t.Fatal(err)
			}
		})
		if lanes := c.cfg.Lanes(); lanes != 64/width {
			t.Fatalf("%d-byte tuples: %d lanes, want %d", width, lanes, 64/width)
		}
		if n != circuitObjects {
			t.Errorf("%d lanes: NewCircuit makes %.0f heap objects, want %d", 64/width, n, circuitObjects)
		}
	}
}
