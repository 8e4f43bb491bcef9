package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpgapart/codec"
	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// lockTuples is the input size of every cycle-lock case: small enough that
// the whole table runs in well under a second, large enough that every case
// reaches steady state, wraps every FIFO and (for the skewed ones) hits the
// forwarding registers and the PAD overflow.
const lockTuples = 1 << 14

// lockCase is one row of the cycle-exactness lock: a circuit configuration
// and the input it runs on.
type lockCase struct {
	name string
	cfg  Config
	rel  func(t *testing.T) *workload.Relation
	// keys, when set, replaces rel: the column is RLE-compressed and fed
	// through PartitionCompressed.
	keys func() []uint32
	// traced attaches a simtrace session and pins its metrics and trace.
	traced bool
	// raw runs on the 25.6 GB/s raw wrapper instead of the QPI link, so the
	// datapath, not the link, sets the pace and tuples arrive back to back.
	raw bool
}

func lockCases() []lockCase {
	random := func(width, n int) func(*testing.T) *workload.Relation {
		return func(t *testing.T) *workload.Relation { return genRelation(t, workload.Random, width, n, 42) }
	}
	columns := func(t *testing.T) *workload.Relation { return random(8, lockTuples)(t).ToColumns() }
	dist := func(d workload.Distribution) func(*testing.T) *workload.Relation {
		return func(t *testing.T) *workload.Relation { return genRelation(t, d, 8, lockTuples, 42) }
	}
	zipf := func(factor float64) func(*testing.T) *workload.Relation {
		return func(t *testing.T) *workload.Relation {
			t.Helper()
			rel, err := workload.NewGenerator(42).ZipfRelation(factor, lockTuples, 8, lockTuples)
			if err != nil {
				t.Fatal(err)
			}
			return rel
		}
	}
	// pairs sends every lane the partition sequence 1,1,2,2,3,3,4,4,…: on
	// the raw wrapper consecutive tuples of a lane hit the fill-rate hazard.
	pairs := func(t *testing.T) *workload.Relation {
		t.Helper()
		rel, err := workload.NewRelation(workload.RowLayout, 8, lockTuples)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lockTuples; i++ {
			rel.SetTuple(i, uint32(i/16%4)+1, uint32(i))
		}
		return rel
	}
	// 64 tuples per partition, as the benchmark's 2^19 tuples over 8192.
	const fan = lockTuples / 64
	mode := func(f Format, l Layout) Config {
		return Config{NumPartitions: fan, TupleWidth: 8, Hash: true, Format: f, Layout: l, PadFraction: 1}
	}
	return []lockCase{
		// The benchmark's ten circuit classes.
		{name: "pad_rid", cfg: mode(PAD, RID), rel: random(8, lockTuples)},
		{name: "hist_rid", cfg: mode(HIST, RID), rel: random(8, lockTuples)},
		{name: "pad_vrid", cfg: mode(PAD, VRID), rel: columns},
		{name: "hist_vrid", cfg: mode(HIST, VRID), rel: columns},
		{name: "hist_rid_w64", cfg: Config{NumPartitions: fan, TupleWidth: 64, Hash: true, Format: HIST}, rel: random(64, lockTuples/8)},
		{name: "pad_rid_fan16", cfg: Config{NumPartitions: 16, TupleWidth: 8, Hash: true, Format: PAD, PadFraction: 1}, rel: random(8, lockTuples)},
		{name: "zipf_hist_hash", cfg: Config{NumPartitions: fan, TupleWidth: 8, Hash: true, Format: HIST}, rel: zipf(1.25)},
		{name: "zipf_pad_fallback", cfg: Config{NumPartitions: fan, TupleWidth: 8, Hash: true, Format: PAD, PadFraction: 0.15}, rel: zipf(0.75)},
		{name: "grid_hist_radix", cfg: Config{NumPartitions: fan, TupleWidth: 8, Format: HIST}, rel: dist(workload.Grid)},
		{name: "linear_pad_radix", cfg: Config{NumPartitions: fan, TupleWidth: 8, Format: PAD, PadFraction: 1}, rel: dist(workload.Linear)},
		// The ablations, the decompressor front end and a traced run.
		{name: "hazard_pairs", cfg: Config{NumPartitions: fan, TupleWidth: 8, Format: HIST}, rel: pairs, raw: true},
		{name: "no_forwarding", cfg: Config{NumPartitions: fan, TupleWidth: 8, Format: HIST, DisableForwarding: true}, rel: pairs, raw: true},
		{name: "no_write_combiner", cfg: Config{NumPartitions: fan, TupleWidth: 8, Hash: true, Format: HIST, DisableWriteCombiner: true}, rel: random(8, lockTuples/4)},
		{name: "compressed", cfg: mode(HIST, VRID), keys: func() []uint32 {
			keys := make([]uint32, lockTuples)
			for i := range keys {
				keys[i] = uint32(i/5)*2654435761 | 1
			}
			return keys
		}},
		{name: "traced_pad_rid", cfg: mode(PAD, RID), rel: random(8, lockTuples), traced: true},
		{name: "traced_hist_vrid", cfg: mode(HIST, VRID), rel: columns, traced: true},
	}
}

// lockRecord is what the lock pins per case.
type lockRecord struct {
	Name   string `json:"name"`
	Err    string `json:"err,omitempty"`
	Stats  Stats  `json:"stats"`
	Output string `json:"output_fnv64a,omitempty"`
	// Traced runs: the metrics snapshot verbatim and a hash of the Chrome
	// trace (phase spans and every windowed sample).
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Trace   string          `json:"trace_fnv64a,omitempty"`
}

// hashOutput folds everything a consumer can read from an Output.
func hashOutput(o *Output) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(o.Lines)))
	for _, w := range o.Lines {
		put(w)
	}
	for _, s := range [][]int64{o.Base, o.LinesUsed, o.Counts} {
		put(uint64(len(s)))
		for _, v := range s {
			put(uint64(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runLockCase(t *testing.T, lc lockCase) lockRecord {
	t.Helper()
	cfg := lc.cfg
	var sess *simtrace.Session
	if lc.traced {
		sess = simtrace.NewSession()
		sess.SampleWindow = 64
		cfg.Trace = sess
	}
	plat := platform.XeonFPGA()
	if lc.raw {
		plat = platform.RawFPGA()
	}
	c, err := NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone)
	if err != nil {
		t.Fatalf("%s: %v", lc.name, err)
	}
	record := func() lockRecord {
		var (
			out   *Output
			stats Stats
			err   error
		)
		if lc.keys != nil {
			out, stats, err = c.PartitionCompressed(codec.CompressRLE(lc.keys()))
		} else {
			out, stats, err = c.Partition(lc.rel(t))
		}
		if err != nil && !errors.Is(err, ErrPartitionOverflow) {
			t.Fatalf("%s: %v", lc.name, err)
		}
		rec := lockRecord{Name: lc.name, Stats: stats}
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.Output = hashOutput(out)
		}
		return rec
	}
	rec := record()
	if sess != nil {
		var mb, tb bytes.Buffer
		if err := sess.Metrics.Snapshot().WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		if err := sess.Tracer.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		rec.Metrics = json.RawMessage(bytes.TrimSpace(mb.Bytes()))
		h := fnv.New64a()
		h.Write(tb.Bytes())
		rec.Trace = fmt.Sprintf("%016x", h.Sum64())
	}
	// The same circuit again: its second run is locked to the same cycles.
	if again := record(); again.Err != rec.Err || again.Stats != rec.Stats || again.Output != rec.Output {
		t.Errorf("%s: second run on the circuit differs from its first:\n first:  %+v\n second: %+v", lc.name, rec.Stats, again.Stats)
	}
	return rec
}

// TestCycleLock is the cycle-exactness oracle of the simulator's datapath:
// for the benchmark's ten circuit classes, both ablations, the compressed
// feed and two traced runs it pins the whole Stats struct, a hash of the
// produced Output and the simtrace metrics and trace against
// testdata/golden/cycle_lock.json. Any change to what is visible to whom in
// which cycle — FIFO order, register latency, QPI token arithmetic, flush
// scan — moves at least one of these. -update rewrites the file; a mismatch
// leaves cycle_lock.got.json beside it.
func TestCycleLock(t *testing.T) {
	var recs []lockRecord
	sawOverflow := false
	for _, lc := range lockCases() {
		rec := runLockCase(t, lc)
		sawOverflow = sawOverflow || rec.Stats.Overflowed
		recs = append(recs, rec)
	}
	if !sawOverflow {
		t.Error("no lock case aborted on PAD overflow; the table lost its overflow row")
	}
	checkLockGolden(t, "cycle_lock.json", recs)
}

// checkLockGolden compares recs, indented, with testdata/golden/<file>. A
// mismatch leaves the records beside it as <file minus .json>.got.json and
// names the first line that moved; -update rewrites the file.
func checkLockGolden(t *testing.T, file string, recs []lockRecord) {
	t.Helper()
	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (generate it at the parent commit with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotPath := strings.TrimSuffix(golden, ".json") + ".got.json"
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Fatal(err)
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("cycle lock broken: %s differs from %s at line %d:\n  golden: %s\n  got:    %s",
				gotPath, golden, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("cycle lock broken: %s and %s differ in length", gotPath, golden)
}
