package core

import (
	"errors"
	"sort"
	"testing"

	"fpgapart/codec"
	"fpgapart/internal/hashutil"
	"fpgapart/platform"
	"fpgapart/workload"
)

// testCurve is a generous flat link so functional tests are not
// bandwidth-shaped; throughput tests use the real curves explicitly.
func testCurve() platform.BandwidthCurve {
	return platform.BandwidthCurve{Points: []float64{25.6, 25.6}}
}

func mustCircuit(t *testing.T, cfg Config) *Circuit {
	t.Helper()
	c, err := NewCircuit(cfg, 200e6, testCurve())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referencePartitions computes the expected per-partition multiset of
// (key, payload) pairs with a trivial software partitioner.
func referencePartitions(rel *workload.Relation, numPartitions int, hash bool) [][][2]uint32 {
	bits := hashutil.Log2(numPartitions)
	ref := make([][][2]uint32, numPartitions)
	for i := 0; i < rel.NumTuples; i++ {
		key := rel.Key(i)
		p := hashutil.PartitionIndex32(key, bits, hash)
		ref[p] = append(ref[p], [2]uint32{key, rel.Payload(i)})
	}
	return ref
}

// assertMatchesReference checks the circuit output against the reference,
// comparing each partition as a sorted multiset.
func assertMatchesReference(t *testing.T, out *Output, ref [][][2]uint32) {
	t.Helper()
	sortPairs := func(ps [][2]uint32) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i][0] != ps[j][0] {
				return ps[i][0] < ps[j][0]
			}
			return ps[i][1] < ps[j][1]
		})
	}
	for p := 0; p < out.NumPartitions; p++ {
		var got [][2]uint32
		out.Partition(p, func(key, pay uint32, _ []uint64) { got = append(got, [2]uint32{key, pay}) })
		want := append([][2]uint32(nil), ref[p]...)
		sortPairs(got)
		sortPairs(want)
		if len(got) != len(want) {
			t.Fatalf("partition %d: %d tuples, want %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("partition %d tuple %d: got %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

func genRelation(t testing.TB, d workload.Distribution, width, n int, seed int64) *workload.Relation {
	t.Helper()
	rel, err := workload.NewGenerator(seed).Relation(d, width, n)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestPartitioningMatchesReferenceAllDistributions(t *testing.T) {
	for _, d := range []workload.Distribution{workload.Linear, workload.Random, workload.Grid, workload.ReverseGrid} {
		for _, hash := range []bool{false, true} {
			// Radix partitioning of grid keys floods a few partitions
			// (Figure 3a) and would rightly overflow PAD mode, so those
			// cases run in HIST mode — as the paper's system would.
			format := PAD
			if !hash && (d == workload.Grid || d == workload.ReverseGrid) {
				format = HIST
			}
			rel := genRelation(t, d, 8, 40000, 42)
			cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: hash, Format: format, Layout: RID, PadFraction: 0.5}
			c := mustCircuit(t, cfg)
			out, stats, err := c.Partition(rel)
			if err != nil {
				t.Fatalf("%v hash=%v: %v", d, hash, err)
			}
			if stats.TuplesIn != 40000 || stats.TuplesOut != 40000 {
				t.Fatalf("%v hash=%v: tuples in/out = %d/%d", d, hash, stats.TuplesIn, stats.TuplesOut)
			}
			assertMatchesReference(t, out, referencePartitions(rel, 256, hash))
		}
	}
}

func TestPadOverflowsOnRadixReverseGrid(t *testing.T) {
	// Reverse-grid keys share one low byte for any modest relation size, so
	// radix partitioning sends every tuple to one partition and PAD mode
	// must abort — the robustness failure Figure 3a illustrates.
	rel := genRelation(t, workload.ReverseGrid, 8, 40000, 42)
	cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: false, Format: PAD, Layout: RID, PadFraction: 0.5}
	_, _, err := mustCircuit(t, cfg).Partition(rel)
	if !errors.Is(err, ErrPartitionOverflow) {
		t.Fatalf("err = %v, want ErrPartitionOverflow", err)
	}
	// Murmur hashing the same keys fixes the distribution (Figure 3b).
	cfg.Hash = true
	if _, _, err := mustCircuit(t, cfg).Partition(rel.Clone()); err != nil {
		t.Fatalf("hash partitioning of reverse-grid keys failed: %v", err)
	}
}

func TestHistRidMatchesReference(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 30000, 7)
	cfg := Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}
	out, stats, err := mustCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, out, referencePartitions(rel, 128, true))
	if stats.HistogramCycles == 0 || stats.PrefixSumCycles != 128 {
		t.Errorf("HIST phases: hist=%d prefix=%d", stats.HistogramCycles, stats.PrefixSumCycles)
	}
	// HIST counts are the exact histogram.
	ref := referencePartitions(rel, 128, true)
	for p := range ref {
		if out.Counts[p] != int64(len(ref[p])) {
			t.Fatalf("partition %d count %d, want %d", p, out.Counts[p], len(ref[p]))
		}
	}
}

func TestWiderTuplesMatchReference(t *testing.T) {
	for _, w := range []int{16, 32, 64} {
		rel := genRelation(t, workload.Random, w, 12000, 5)
		cfg := Config{NumPartitions: 64, TupleWidth: w, Hash: true, Format: PAD, Layout: RID, PadFraction: 0.5}
		out, _, err := mustCircuit(t, cfg).Partition(rel)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if out.TupleWidth != w {
			t.Fatalf("width %d: output width %d", w, out.TupleWidth)
		}
		assertMatchesReference(t, out, referencePartitions(rel, 64, true))
	}
}

func TestWideTuplePayloadWordsSurvive(t *testing.T) {
	// Fill all words of 32 B tuples and verify the full record round-trips.
	rel, _ := workload.NewRelation(workload.RowLayout, 32, 1000)
	for i := 0; i < 1000; i++ {
		rel.SetTuple(i, uint32(i+1), uint32(i))
		for w := 1; w < 4; w++ {
			rel.Data[i*4+w] = uint64(i)<<32 | uint64(w)
		}
	}
	cfg := Config{NumPartitions: 16, TupleWidth: 32, Hash: true, Format: HIST, Layout: RID}
	out, _, err := mustCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for p := 0; p < 16; p++ {
		out.Partition(p, func(key, _ uint32, words []uint64) {
			i := uint64(key - 1)
			for w := 1; w < 4; w++ {
				if words[w] != i<<32|uint64(w) {
					t.Fatalf("tuple %d word %d corrupted: %#x", i, w, words[w])
				}
			}
			seen++
		})
	}
	if seen != 1000 {
		t.Fatalf("saw %d tuples, want 1000", seen)
	}
}

func TestVRIDMatchesReferenceAndIndexesPayloads(t *testing.T) {
	rowRel := genRelation(t, workload.Random, 8, 25000, 3)
	colRel := rowRel.ToColumns()
	cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: true, Format: PAD, Layout: VRID, PadFraction: 0.5}
	out, stats, err := mustCircuit(t, cfg).Partition(colRel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TuplesIn != 25000 {
		t.Fatalf("TuplesIn = %d", stats.TuplesIn)
	}
	// Every output tuple is <key, VRID>; materializing via the VRID must
	// recover the original tuple.
	bits := hashutil.Log2(256)
	total := 0
	for p := 0; p < 256; p++ {
		out.Partition(p, func(key, vrid uint32, _ []uint64) {
			if colRel.Keys[vrid] != key {
				t.Fatalf("VRID %d carries key %#x, original %#x", vrid, key, colRel.Keys[vrid])
			}
			if got := hashutil.PartitionIndex32(key, bits, true); got != uint32(p) {
				t.Fatalf("key %#x in partition %d, want %d", key, p, got)
			}
			total++
		})
	}
	if total != 25000 {
		t.Fatalf("materialized %d tuples, want 25000", total)
	}
	// VRID halves the read traffic: 25000 keys = 4B each.
	wantReads := int64((25000*4 + 63) / 64)
	if stats.LinesRead != wantReads {
		t.Errorf("LinesRead = %d, want %d", stats.LinesRead, wantReads)
	}
}

func TestHistVRID(t *testing.T) {
	rowRel := genRelation(t, workload.Grid, 8, 10000, 11)
	colRel := rowRel.ToColumns()
	cfg := Config{NumPartitions: 64, TupleWidth: 8, Hash: true, Format: HIST, Layout: VRID}
	out, _, err := mustCircuit(t, cfg).Partition(colRel)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalTuples() != 10000 {
		t.Fatalf("TotalTuples = %d", out.TotalTuples())
	}
}

func TestAdversarialSinglePartitionNoStalls(t *testing.T) {
	// Every tuple lands in the same partition — the worst case for the
	// fill-rate BRAM hazard. With forwarding there must be zero hazard
	// stalls (the paper's central claim) and plenty of forwarded hazards.
	rel, _ := workload.NewRelation(workload.RowLayout, 8, 20000)
	for i := 0; i < 20000; i++ {
		rel.SetTuple(i, 4096, uint32(i)) // constant key
	}
	cfg := Config{NumPartitions: 64, TupleWidth: 8, Hash: false, Format: HIST, Layout: RID}
	out, stats, err := mustCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StallsHazard != 0 {
		t.Errorf("hazard stalls = %d, want 0 with forwarding", stats.StallsHazard)
	}
	if stats.ForwardedHazards == 0 {
		t.Error("expected forwarded hazards on single-partition input")
	}
	if out.Counts[4096&63] != 20000 {
		t.Errorf("partition count = %d", out.Counts[4096&63])
	}
}

func TestForwardingAblationStalls(t *testing.T) {
	rel, _ := workload.NewRelation(workload.RowLayout, 8, 20000)
	for i := 0; i < 20000; i++ {
		rel.SetTuple(i, 1, uint32(i))
	}
	base := Config{NumPartitions: 64, TupleWidth: 8, Hash: false, Format: HIST, Layout: RID}
	_, with, err := mustCircuit(t, base).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	noFwd := base
	noFwd.DisableForwarding = true
	_, without, err := mustCircuit(t, noFwd).Partition(rel.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if without.StallsHazard == 0 {
		t.Error("no hazard stalls with forwarding disabled on adversarial input")
	}
	if without.Cycles <= with.Cycles {
		t.Errorf("disabled forwarding took %d cycles, forwarding %d — expected slower", without.Cycles, with.Cycles)
	}
}

func TestForwardingAblationStillCorrect(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 15000, 9)
	cfg := Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: PAD, Layout: RID,
		PadFraction: 0.5, DisableForwarding: true}
	out, _, err := mustCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, out, referencePartitions(rel, 128, true))
}

func TestNoWriteCombinerAblation(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 15000, 13)
	base := Config{NumPartitions: 128, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}
	_, withWC, err := mustCircuit(t, base).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	naive := base
	naive.DisableWriteCombiner = true
	outN, withoutWC, err := mustCircuit(t, naive).Partition(rel.Clone())
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, outN, referencePartitions(rel, 128, true))
	// Section 4.2: naive write-back moves (64+64)·T bytes instead of
	// 64·T/8, a 16× blow-up of the shuffle traffic. End to end (including
	// the shared histogram pass) the run must be several times slower.
	if withoutWC.Cycles < 3*withWC.Cycles {
		t.Errorf("no-combiner ablation took %d cycles vs %d with combining — expected ≥3× slower",
			withoutWC.Cycles, withWC.Cycles)
	}
	if withoutWC.Dummies != 0 {
		t.Errorf("tuple-granular writes should write no dummy tuples, got %d", withoutWC.Dummies)
	}
}

func TestPadOverflowOnSkew(t *testing.T) {
	g := workload.NewGenerator(21)
	rel, err := g.ZipfRelation(1.0, 100000, 8, 50000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: true, Format: PAD, Layout: RID, PadFraction: 0.15}
	_, stats, err := mustCircuit(t, cfg).Partition(rel)
	if !errors.Is(err, ErrPartitionOverflow) {
		t.Fatalf("err = %v, want ErrPartitionOverflow", err)
	}
	if !stats.Overflowed || stats.OverflowAtTuple == 0 {
		t.Errorf("overflow stats: %+v", stats)
	}
}

func TestHistHandlesAnySkew(t *testing.T) {
	g := workload.NewGenerator(22)
	rel, err := g.ZipfRelation(1.75, 100000, 8, 50000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}
	out, _, err := mustCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, out, referencePartitions(rel, 256, true))
}

func TestEmptyRelation(t *testing.T) {
	for _, f := range []Format{HIST, PAD} {
		rel, _ := workload.NewRelation(workload.RowLayout, 8, 0)
		cfg := Config{NumPartitions: 64, TupleWidth: 8, Hash: true, Format: f, Layout: RID}
		out, stats, err := mustCircuit(t, cfg).Partition(rel)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if out.TotalTuples() != 0 || stats.TuplesIn != 0 {
			t.Errorf("%v: nonzero tuples on empty input", f)
		}
	}
}

func TestSingleTupleRelation(t *testing.T) {
	rel, _ := workload.NewRelation(workload.RowLayout, 8, 1)
	rel.SetTuple(0, 77, 99)
	cfg := Config{NumPartitions: 8, TupleWidth: 8, Hash: false, Format: PAD, Layout: RID}
	out, stats, err := mustCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, out, [][][2]uint32{77 & 7: {{77, 99}}, 7: nil})
	if stats.Dummies != 7 {
		t.Errorf("Dummies = %d, want 7 (one flushed line)", stats.Dummies)
	}
}

func TestDummyAccounting(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, 10007, 17) // awkward size
	cfg := Config{NumPartitions: 64, TupleWidth: 8, Hash: true, Format: HIST, Layout: RID}
	out, stats, err := mustCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalTuples() != 10007 {
		t.Errorf("TotalTuples = %d", out.TotalTuples())
	}
	var used int64
	for _, n := range out.LinesUsed {
		used += n
	}
	if got := used*8 - out.TotalTuples(); stats.Dummies != got {
		t.Errorf("stats.Dummies = %d, output says %d", stats.Dummies, got)
	}
	if stats.LinesWritten != used {
		t.Errorf("LinesWritten = %d, used %d", stats.LinesWritten, used)
	}
}

func TestLayoutMismatchRejected(t *testing.T) {
	rowRel := genRelation(t, workload.Linear, 8, 100, 1)
	colRel := rowRel.ToColumns()
	vrid := Config{NumPartitions: 8, TupleWidth: 8, Format: PAD, Layout: VRID}
	if _, _, err := mustCircuit(t, vrid).Partition(rowRel); err == nil {
		t.Error("VRID accepted a row-layout relation")
	}
	rid := Config{NumPartitions: 8, TupleWidth: 8, Format: PAD, Layout: RID}
	if _, _, err := mustCircuit(t, rid).Partition(colRel); err == nil {
		t.Error("RID accepted a column-layout relation")
	}
	wide := Config{NumPartitions: 8, TupleWidth: 16, Format: PAD, Layout: RID}
	if _, _, err := mustCircuit(t, wide).Partition(rowRel); err == nil {
		t.Error("16B circuit accepted an 8B relation")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumPartitions: 100, TupleWidth: 8},                    // not power of two
		{NumPartitions: 1, TupleWidth: 8},                      // too few
		{NumPartitions: 64, TupleWidth: 12},                    // bad width
		{NumPartitions: 64, TupleWidth: 16, Layout: VRID},      // VRID needs 8B
		{NumPartitions: 64, TupleWidth: 8, PadFraction: -0.5},  // negative pad
		{NumPartitions: 64, TupleWidth: 8, Stage1FIFODepth: 2}, // shallow FIFO
		{NumPartitions: 64, TupleWidth: 8, OutFIFODepth: 1},    // shallow out FIFO
		{NumPartitions: 64, TupleWidth: 8, Format: PAD + 1},    // no such format
		{NumPartitions: 64, TupleWidth: 8, Layout: VRID + 1},   // no such layout
	}
	for i, cfg := range bad {
		if _, err := NewCircuit(cfg, 200e6, testCurve()); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewCircuit(Config{NumPartitions: 64, TupleWidth: 8}, 0, testCurve()); err == nil {
		t.Error("zero clock accepted")
	}
	// A link that carries nothing would stall the circuit forever.
	if _, err := NewCircuit(Config{NumPartitions: 64, TupleWidth: 8}, 200e6, platform.BandwidthCurve{Points: []float64{0, 0}}); err == nil {
		t.Error("zero-bandwidth curve accepted")
	}
}

// TestPageTranslationsHappen holds Stats.PageTranslations to its rule: one
// translation per input line the partition pass reads from a plain relation
// (ceil(N/lanes) for RID, ceil(N/16) for VRID, none for RLE input), plus one
// per line the write-back commits while the write combiner is on.
func TestPageTranslationsHappen(t *testing.T) {
	const n = 20001 // a partial last line in every layout
	keys := compressible(n, 300, 23)
	col := codec.CompressRLE(keys)
	rid := genRelation(t, workload.Random, 8, n, 19)
	vrid := rid.ToColumns()
	wide := genRelation(t, workload.Random, 64, n, 29)
	for _, tc := range []struct {
		name  string
		cfg   Config
		rel   *workload.Relation
		input int64 // input lines the partition pass reads
	}{
		{"pad_rid", Config{Format: PAD, Layout: RID}, rid, (n + 7) / 8},
		{"hist_rid", Config{Format: HIST, Layout: RID}, rid, (n + 7) / 8},
		{"pad_vrid", Config{Format: PAD, Layout: VRID}, vrid, (n + 15) / 16},
		{"hist_vrid", Config{Format: HIST, Layout: VRID}, vrid, (n + 15) / 16},
		{"hist_rid_w64", Config{Format: HIST, Layout: RID, TupleWidth: 64}, wide, n},
		{"hist_rle", Config{Format: HIST, Layout: VRID}, nil, 0},
		{"pad_rid_no_forwarding", Config{Format: PAD, Layout: RID, DisableForwarding: true}, rid, (n + 7) / 8},
		{"hist_rid_no_combiner", Config{Format: HIST, Layout: RID, DisableWriteCombiner: true}, rid, (n + 7) / 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.NumPartitions, cfg.Hash, cfg.PadFraction = 64, true, 0.5
			if cfg.TupleWidth == 0 {
				cfg.TupleWidth = 8
			}
			c := mustCircuit(t, cfg)
			var stats Stats
			var err error
			if tc.rel == nil {
				_, stats, err = c.PartitionCompressed(col)
			} else {
				_, stats, err = c.Partition(tc.rel)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tc.input
			if !cfg.DisableWriteCombiner {
				want += stats.LinesWritten
			}
			if stats.PageTranslations != want {
				t.Errorf("PageTranslations = %d, want %d input lines + %d lines written", stats.PageTranslations, tc.input, want-tc.input)
			}
		})
	}
}

func TestFormatLayoutStrings(t *testing.T) {
	if HIST.String() != "HIST" || PAD.String() != "PAD" {
		t.Error("format strings")
	}
	if RID.String() != "RID" || VRID.String() != "VRID" {
		t.Error("layout strings")
	}
	if Format(9).String() == "" || Layout(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
}
