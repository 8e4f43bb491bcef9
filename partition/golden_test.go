package partition

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"fpgapart/codec"
	"fpgapart/internal/simtrace"
	"fpgapart/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// The golden workload: 8-value key runs (so the RLE-compressed path carries
// real runs, not one run per tuple) spread over the fan-out by a Knuth
// multiplicative constant. Everything below is a pure function of these
// numbers — no generator, no seed, nothing host-dependent.
const (
	goldenTuples = 20000
	goldenRunLen = 8
	goldenFanOut = 64
)

func goldenKeys() []uint32 {
	keys := make([]uint32, goldenTuples)
	for i := range keys {
		keys[i] = uint32(i/goldenRunLen) * 2654435761
	}
	return keys
}

// partitionMultisets returns the per-partition sorted (key, payload)
// multisets — the backend- and timing-independent view of a Result.
func partitionMultisets(res *Result) [][]uint64 {
	out := make([][]uint64, res.NumPartitions())
	for p := range out {
		var v []uint64
		res.Each(p, func(k, pay uint32) { v = append(v, uint64(k)<<32|uint64(pay)) })
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		out[p] = v
	}
	return out
}

// TestGoldenConformance runs the same column through all three partitioning
// backends — the simulated FPGA in VRID mode, the compressed-input FPGA
// path, and the CPU software partitioner on materialized <key, VRID> rows —
// and requires identical partition contents from each. The FPGA run's
// histogram and simtrace metrics are then compared byte-for-byte against the
// golden snapshot; -update rewrites it, and a mismatch leaves a .got.json
// next to the golden file for CI to upload.
func TestGoldenConformance(t *testing.T) {
	keys := goldenKeys()
	rows, err := workload.FromKeys(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	col := rows.ToColumns()

	sess := simtrace.NewSession()
	fp, err := NewFPGA(FPGAOptions{
		Partitions: goldenFanOut, Hash: true,
		Format: HistMode, Layout: ColumnStore, Trace: sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	fpgaRes, err := fp.Partition(col)
	if err != nil {
		t.Fatalf("fpga vrid: %v", err)
	}
	snapshot := goldenSnapshot(fpgaRes, sess)
	// The same circuit again: its second run is the first, word for word.
	again, err := fp.Partition(col)
	if err != nil {
		t.Fatalf("fpga vrid, second run: %v", err)
	}
	if again.Stats != fpgaRes.Stats || !reflect.DeepEqual(again.fpga, fpgaRes.fpga) {
		t.Errorf("second run on the circuit differs from its first:\n first:  %+v\n second: %+v", fpgaRes.Stats, again.Stats)
	}

	compRes, err := FPGACompressed(FPGAOptions{
		Partitions: goldenFanOut, Hash: true,
		Format: HistMode, Layout: ColumnStore,
	}, codec.CompressRLE(keys))
	if err != nil {
		t.Fatalf("fpga compressed: %v", err)
	}

	cp, err := NewCPU(CPUOptions{Partitions: goldenFanOut, Hash: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	cpuRes, err := cp.Partition(rows)
	if err != nil {
		t.Fatalf("cpu: %v", err)
	}

	ref := partitionMultisets(fpgaRes)
	for _, other := range []struct {
		name string
		res  *Result
	}{
		{"fpga-compressed", compRes},
		{"cpu", cpuRes},
	} {
		got := partitionMultisets(other.res)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d partitions, fpga-vrid has %d", other.name, len(got), len(ref))
		}
		for p := range ref {
			if len(got[p]) != len(ref[p]) {
				t.Fatalf("%s: partition %d holds %d tuples, fpga-vrid holds %d",
					other.name, p, len(got[p]), len(ref[p]))
			}
			for i := range ref[p] {
				if got[p][i] != ref[p][i] {
					t.Fatalf("%s: partition %d differs from fpga-vrid at tuple %d: %#x vs %#x",
						other.name, p, i, got[p][i], ref[p][i])
				}
			}
		}
	}

	compareGolden(t, filepath.Join("testdata", "golden", "partition_conformance.json"), snapshot)
}

// goldenSnapshot renders the run as deterministic JSON: the workload shape,
// the partition histogram, and the simtrace metrics snapshot.
func goldenSnapshot(res *Result, sess *simtrace.Session) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"workload\": {\"tuples\": %d, \"run_length\": %d, \"fan_out\": %d},\n",
		goldenTuples, goldenRunLen, goldenFanOut)
	b.WriteString("  \"histogram\": [")
	for p := 0; p < res.NumPartitions(); p++ {
		if p > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", res.Count(p))
	}
	b.WriteString("],\n  \"metrics\": ")
	var m bytes.Buffer
	if err := sess.Metrics.Snapshot().WriteJSON(&m); err != nil {
		panic(err) // bytes.Buffer does not fail
	}
	b.Write(bytes.TrimRight(m.Bytes(), "\n"))
	b.WriteString("\n}\n")
	return b.Bytes()
}

// compareGolden diffs got against the golden file, honouring -update. On a
// mismatch the actual bytes are written next to the golden file as
// <name>.got.json so CI can attach them as an artifact.
func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
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
		t.Fatalf("reading golden file (run `go test ./partition -run TestGolden -update` to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotPath := golden[:len(golden)-len(".json")] + ".got.json"
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("golden mismatch: %s differs from %s\n%s\nrerun with -update if the change is intended",
		golden, gotPath, firstDiff(want, got))
}

// firstDiff reports the first line where want and got diverge.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("files differ in length: golden %d lines, got %d lines", len(wl), len(gl))
}

// TestTraceByteIdentical locks down the determinism contract end to end: two
// runs of the same seed with fresh sessions must produce byte-identical
// Chrome trace JSON and metrics snapshots.
func TestTraceByteIdentical(t *testing.T) {
	run := func() (trace, metrics []byte) {
		rel, err := workload.NewGenerator(11).Relation(workload.Random, 8, 30000)
		if err != nil {
			t.Fatal(err)
		}
		sess := simtrace.NewSession()
		p, err := NewFPGA(FPGAOptions{
			Partitions: 256, Hash: true, Format: PadMode, PadFraction: 0.5, Trace: sess,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Partition(rel); err != nil {
			t.Fatal(err)
		}
		var tb, mb bytes.Buffer
		if err := sess.Tracer.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		if err := sess.Metrics.Snapshot().WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	t1, m1 := run()
	t2, m2 := run()
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace JSON differs between identical runs\n%s", firstDiff(t1, t2))
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics JSON differs between identical runs\n%s", firstDiff(m1, m2))
	}
}
