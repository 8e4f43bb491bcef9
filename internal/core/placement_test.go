package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"fpgapart/platform"
	"fpgapart/workload"
)

// placementCircuit is a circuit at the large lock cells' density: 2^17
// tuples of 8 bytes store about 23 000 lines, nearly six log chunks.
func placementCircuit(t *testing.T, cfg Config) *Circuit {
	t.Helper()
	plat := platform.XeonFPGA()
	c, err := NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var placementPAD = Config{NumPartitions: largeLockTuples / 64, TupleWidth: 8, Hash: true, Format: PAD, PadFraction: 1}

// countChunks installs a placement hook counting the chunks placement
// goroutines receive, for the rest of the test.
func countChunks(t *testing.T) *int {
	n := new(int)
	t.Cleanup(SetPlacementHook(func() { *n++ }))
	return n
}

// waitGoroutines polls until the goroutine count is back at before: a
// goroutine is retired a little after it signals its end.
func waitGoroutines(t *testing.T, before int, after string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after %s, %d before", runtime.NumGoroutine(), after, before)
		}
	}
}

// freshOutput is the output hash of rel on a circuit that has never run.
func freshOutput(t *testing.T, cfg Config, rel *workload.Relation) string {
	t.Helper()
	out, _, err := placementCircuit(t, cfg).Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	return hashOutput(out)
}

// TestPlacementInlineStartsNoGoroutine: a run whose lines fit one log chunk
// — the serving stack's largest default job, 2^14 tuples over 64
// partitions, and exactly one chunk of full lines — places on the caller's
// goroutine and builds no hand-off ring.
func TestPlacementInlineStartsNoGoroutine(t *testing.T) {
	chunks := countChunks(t)
	for _, n := range []int{1 << 14, logChunk * 8} {
		c := placementCircuit(t, Config{NumPartitions: 64, TupleWidth: 8, Hash: true, Format: PAD, PadFraction: 1})
		rel := genRelation(t, workload.Random, 8, n, 3)
		out, _, err := c.Partition(rel)
		if err != nil {
			t.Fatal(err)
		}
		if *chunks != 0 || c.pl.full != nil {
			t.Fatalf("%d tuples: %d chunks reached a placement goroutine, ring built %t", n, *chunks, c.pl.full != nil)
		}
		if got, want := hashOutput(out), freshOutput(t, c.cfg, rel); got != want {
			t.Fatalf("%d tuples: output %s, a fresh circuit's %s", n, got, want)
		}
	}
}

// TestPlacementGoroutineEndsWithRun: a multi-chunk run and a multi-chunk
// PAD-overflow abort each leave the goroutine count where it was, and the
// circuit that aborted then produces a fresh circuit's bytes.
func TestPlacementGoroutineEndsWithRun(t *testing.T) {
	chunks := countChunks(t)
	rel := genRelation(t, workload.Random, 8, largeLockTuples, 7)
	want := freshOutput(t, placementPAD, rel)

	before := runtime.NumGoroutine()
	c := placementCircuit(t, placementPAD)
	out, _, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if hashOutput(out) != want {
		t.Fatal("the multi-chunk run's output differs from the first run of a fresh circuit")
	}
	if *chunks < 4 {
		t.Fatalf("the run handed %d chunks to its placement goroutine, want at least 4", *chunks)
	}
	waitGoroutines(t, before, "a multi-chunk run")

	var overflow lockCase
	for _, lc := range largeLockCases() {
		if lc.name == "pad_overflow_late" {
			overflow = lc
		}
	}
	aborted := placementCircuit(t, overflow.cfg)
	*chunks = 0
	_, st, err := aborted.Partition(overflow.rel(t))
	if !errors.Is(err, ErrPartitionOverflow) || st.LinesWritten < largeLockLines || *chunks < 4 {
		t.Fatalf("overflow cell: %v after %d lines and %d chunks", err, st.LinesWritten, *chunks)
	}
	waitGoroutines(t, before, "a multi-chunk abort")

	uniform := genRelation(t, workload.Random, 8, largeLockTuples, 9)
	out, _, err = aborted.Partition(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hashOutput(out), freshOutput(t, overflow.cfg, uniform); got != want {
		t.Fatalf("after its abort the circuit wrote %s, a fresh circuit %s", got, want)
	}
}

// TestPlacementPanicReachesCaller: a panic on the placement goroutine is
// recovered there and raised again on the caller's, with its value, at the
// end of the run; the goroutine is gone by then, and the circuit's next run
// is a fresh circuit's.
func TestPlacementPanicReachesCaller(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, largeLockTuples, 7)
	want := freshOutput(t, placementPAD, rel)
	c := placementCircuit(t, placementPAD)
	injected := errors.New("injected placement fault")
	chunks := 0
	restore := SetPlacementHook(func() {
		if chunks++; chunks == 3 {
			panic(injected)
		}
	})
	before := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		c.Partition(rel)
		return nil
	}()
	restore()
	if got != injected {
		t.Fatalf("the caller recovered %v, want the placement goroutine's %v", got, injected)
	}
	waitGoroutines(t, before, "a placement panic")
	out, _, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if hashOutput(out) != want {
		t.Fatal("after a placement panic the circuit's output differs from a fresh circuit's")
	}
}

// TestPlacementStopsOnCycleLoopPanic: a panic in the cycle loop of a
// multi-chunk run — here a relation that holds half the tuples it counts —
// ends the log on its way out, so the placement goroutine is gone when the
// panic reaches the caller, and the circuit's next run is a fresh one's.
func TestPlacementStopsOnCycleLoopPanic(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, largeLockTuples, 7)
	short := *rel
	short.Data = rel.Data[:len(rel.Data)/2]
	c := placementCircuit(t, placementPAD)
	before := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		c.Partition(&short)
		return nil
	}()
	if got == nil {
		t.Fatal("a relation shorter than its tuple count did not panic")
	}
	waitGoroutines(t, before, "a cycle-loop panic")
	out, _, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if hashOutput(out) != freshOutput(t, placementPAD, rel) {
		t.Fatal("after a cycle-loop panic the circuit's output differs from a fresh circuit's")
	}
}

// TestPlacementStopsOnCycleLoopPanicVRID is the VRID twin of the test above:
// a key column shorter than the tuple count it claims must panic, even
// though the slice's capacity still holds the rest of the keys, and leave
// no placement goroutine and a circuit whose next run is a fresh one's.
func TestPlacementStopsOnCycleLoopPanicVRID(t *testing.T) {
	rel := genRelation(t, workload.Random, 8, largeLockTuples, 7).ToColumns()
	short := *rel
	short.Keys = rel.Keys[:len(rel.Keys)/2]
	cfg := placementPAD
	cfg.Layout = VRID
	c := placementCircuit(t, cfg)
	before := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		c.Partition(&short)
		return nil
	}()
	if got == nil {
		t.Fatal("a key column shorter than its tuple count did not panic")
	}
	waitGoroutines(t, before, "a cycle-loop panic")
	out, _, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if hashOutput(out) != freshOutput(t, cfg, rel) {
		t.Fatal("after a cycle-loop panic the circuit's output differs from a fresh circuit's")
	}
}

// TestPlacementFollowsHandWrittenLogs places store logs, written by hand as
// (destination word, lane) entries, over small VRID relations on the placer
// of a run that has made its pre-pass and allocated its output. Tuple j's
// key is 4j plus its partition; want lists the output line by line as the
// tuples in each slot, and a slot past a line's list holds a dummy key, as
// does a -1.
func TestPlacementFollowsHandWrittenLogs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		single bool // the no-write-combiner ablation
		n      int
		part   func(j int) int
		log    [][2]int64
		want   [][]int
	}{{
		// Lane 0's entry takes the lane's tuples, every eighth, until one
		// of its bank lines fills; the log ending there (a PAD overflow)
		// leaves the next line dummies.
		name: "fill_and_emit", n: 64, part: func(int) int { return 2 },
		log:  [][2]int64{{0, 0}},
		want: [][]int{{0, 8, 16, 24, 32, 40, 48, 56}, {}},
	}, {
		// An entry of a lane whose input is used up is its next partial
		// bank line, and the dummy fill pads it.
		name: "flush_pads_with_dummies", n: 1, part: func(int) int { return 3 },
		log:  [][2]int64{{0, 0}},
		want: [][]int{{0}},
	}, {
		// Every lane holds eight tuples of partition 1, then one of 3 and
		// one of 2. Lane 1's full line is logged before lane 0's, lane 1's
		// first flush line follows lane 0's last full line, and a lane's
		// flush lines come in address order, not input order.
		name: "lanes_out_of_step", n: 80,
		part: func(j int) int {
			if j < 64 {
				return 1
			}
			return 3 - j/8%2
		},
		log:  [][2]int64{{0, 1}, {8, 0}, {16, 1}, {24, 0}, {32, 0}, {40, 1}},
		want: [][]int{{1, 9, 17, 25, 33, 41, 49, 57}, {0, 8, 16, 24, 32, 40, 48, 56}, {73}, {72}, {64}, {65}},
	}, {
		// An entry is a tuple's slot, and it takes its lane's next tuple.
		name: "without_write_combiner", single: true, n: 16, part: func(j int) int { return j % 4 },
		log:  [][2]int64{{5, 1}, {0, 0}, {6, 1}, {1, 0}, {8, 7}},
		want: [][]int{{0, 8, -1, -1, -1, 1, 9}, {7}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NumPartitions: 4, TupleWidth: 8, Layout: VRID, Format: PAD, DisableWriteCombiner: tc.single}
			keys := make([]uint32, tc.n)
			for j := range keys {
				keys[j] = uint32(4*j + tc.part(j))
			}
			rel := &workload.Relation{Layout: workload.ColumnLayout, Width: 8, NumTuples: tc.n, Keys: keys}
			r := mustCircuit(t, cfg).newRun(rel, nil)
			r.prepass()
			r.padBases()
			if err := r.allocate(); err != nil {
				t.Fatal(err)
			}
			pl := r.pl
			pl.words = int64(8 * len(tc.want))
			for _, e := range tc.log {
				pl.record(e[0], uint8(e[1]))
			}
			lines := pl.end(true)
			for i, w := range lines {
				want, j := dummyWord, -1
				if slots := tc.want[i/8]; i%8 < len(slots) {
					j = slots[i%8]
				}
				if j >= 0 {
					want = uint64(j)<<32 | uint64(keys[j])
				}
				if w != want {
					t.Errorf("word %d = %#x, want %#x (tuple %d)", i, w, want, j)
				}
			}
		})
	}
}
