package core

import (
	"testing"

	"fpgapart/platform"
	"fpgapart/workload"
)

// hostCase is one mode × width cell of the host-cost measurements: the
// benchmark's steady classes at its partition density (64 tuples each).
type hostCase struct {
	name   string
	format Format
	layout Layout
	width  int
}

var hostCases = []hostCase{
	{"pad_rid_w8", PAD, RID, 8},
	{"hist_rid_w8", HIST, RID, 8},
	{"pad_vrid_w8", PAD, VRID, 8},
	{"hist_vrid_w8", HIST, VRID, 8},
	{"hist_rid_w16", HIST, RID, 16},
	{"hist_rid_w64", HIST, RID, 64},
}

func (hc hostCase) build(tb testing.TB, tuples int) (*Circuit, *workload.Relation) {
	tb.Helper()
	rel := genRelation(tb, workload.Random, hc.width, tuples, 42)
	if hc.layout == VRID {
		rel = rel.ToColumns()
	}
	plat := platform.XeonFPGA()
	c, err := NewCircuit(Config{
		NumPartitions: tuples / 64, TupleWidth: hc.width, Hash: true,
		Format: hc.format, Layout: hc.layout, PadFraction: 1,
	}, plat.FPGAClockHz, plat.FPGAAlone)
	if err != nil {
		tb.Fatal(err)
	}
	return c, rel
}

// BenchmarkCircuitPartition is the layer number of the cycle simulator: host
// nanoseconds per simulated cycle, per mode × tuple width, at the
// benchmark's scale (2^19 tuples over 8192 partitions; 2^16 for 64-byte
// tuples).
//
//	go test ./internal/core -run '^$' -bench CircuitPartition -benchtime 5x
func BenchmarkCircuitPartition(b *testing.B) {
	for _, hc := range hostCases {
		b.Run(hc.name, func(b *testing.B) {
			c, rel := hc.build(b, (1<<19)*8/hc.width)
			b.ReportAllocs()
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				_, st, err := c.Partition(rel)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles*int64(b.N)), "ns/cycle")
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// runObjects is how many heap objects an untraced Partition makes on a
// circuit that has run before, whatever the lanes, input size or fan-out: the
// run, its Stats and QPI end-point, one slab each for the destination
// bookkeeping, the bank BRAMs and the fill-rate BRAMs, the Output and its
// lines, and the shared-memory pool, region, page array and snoop-filter
// span. (It was 23 + 7 per lane — 79 at eight lanes — while every run rebuilt
// the datapath; the benchmark's core.mallocs_per_op is this number.)
const runObjects = 12

// TestPartitionAllocations guards the per-run fixed cost and the pass loops:
// the second and later runs of a circuit make runObjects heap objects, and
// not one more when the three passes run eight times as many cycles.
func TestPartitionAllocations(t *testing.T) {
	for _, hc := range hostCases {
		perOp := func(tuples int) float64 {
			c, rel := hc.build(t, tuples)
			return testing.AllocsPerRun(3, func() {
				if _, _, err := c.Partition(rel); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := perOp(1<<12), perOp(1<<15)
		if min(small, large) > runObjects {
			t.Errorf("%s: %.0f heap objects per Partition, want at most %d", hc.name, min(small, large), runObjects)
		}
		// The runtime adds an object of its own at some heap sizes (at the
		// parent too); an allocation per cycle would add thousands.
		if large > small+1 {
			t.Errorf("%s: %.0f heap objects at 2^15 tuples, %.0f at 2^12: the pass loops allocate", hc.name, large, small)
		}
	}
}
