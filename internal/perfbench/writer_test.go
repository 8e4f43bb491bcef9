package perfbench

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"fpgapart/cluster"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partserver"
)

var errInjected = errors.New("injected write failure")

// failAfter accepts the first left bytes and fails every write past them.
type failAfter struct {
	buf  bytes.Buffer
	left int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.buf.Write(p[:n])
		f.left = 0
		return n, errInjected
	}
	f.left -= len(p)
	return f.buf.Write(p)
}

// TestArtifactWritersSurfaceTheFirstWriteError runs each of the module's
// artifact writers into a target that fails after k bytes: below the
// artifact's length the writer returns the injected error, named after the
// artifact; at or past it the bytes equal an unbroken run. Every artifact is
// longer than one buffer, so k = 4095 fails on the first buffer flush.
func TestArtifactWritersSurfaceTheFirstWriteError(t *testing.T) {
	cfg := Config{}.WithDefaults()

	// The faulty cell's crash and reroutes over four times its stream: a
	// flight timeline longer than one buffer.
	reqs, err := cluster.GenerateLoad(uint64(cfg.Seed), 4*clusterRequests, cluster.LoadOptions{
		MinTuples: cfg.Tuples / 16, MaxTuples: cfg.Tuples / 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, capt := simtrace.NewSession(), &reqtrace.Capture{}
	ccfg := clusterScenarios(cfg)[2].config(cfg)
	ccfg.Trace, ccfg.ReqTrace = sess, capt
	crep, err := cluster.Run(reqs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	reqtrace.EmitChrome(sess, capt.Traces) // the causal layer, as a command's -trace writes it

	jobs, err := partserver.GenerateTrace(uint64(cfg.Seed), schedJobs, partserver.TraceOptions{
		MeanGapUS: 80, MinTuples: cfg.Tuples / 8, MaxTuples: cfg.Tuples,
	})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := partserver.Run(jobs, partserver.Config{FPGAs: schedFPGAs, Workers: schedWorkers, Seed: uint64(cfg.Seed)})
	if err != nil {
		t.Fatal(err)
	}

	bench := suiteReport(t, SuiteCluster)
	moved := suiteReport(t, SuiteCluster)
	for ri := range moved.Records {
		for mi := range moved.Records[ri].Gated.Metrics {
			moved.Records[ri].Gated.Metrics[mi].Value++
		}
	}
	cmp, err := Compare(bench, moved)
	if err != nil {
		t.Fatal(err)
	}
	// The hedged cell's record is the largest snapshot of the suite.
	snap := bench.Records[len(bench.Records)-1].Gated.Metrics

	for _, c := range []struct {
		what  string
		write func(io.Writer) error
	}{
		{"metrics snapshot", snap.WriteJSON},
		{"trace", sess.Tracer.WriteJSON},
		{"BENCH report", bench.WriteJSON},
		{"comparison", cmp.WriteMarkdown},
		{"partserver: writing report", prep.WriteJSON},
		{"cluster: writing report", crep.WriteJSON},
		{"breakdowns", func(w io.Writer) error { return reqtrace.WriteBreakdownJSON(w, capt.Traces) }},
		{"postmortem", func(w io.Writer) error { return capt.WritePostmortem(w, "test") }},
	} {
		var whole bytes.Buffer
		if err := c.write(&whole); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		n := whole.Len()
		if n <= 4096 {
			t.Fatalf("%s: %d bytes, want more than one 4096-byte buffer", c.what, n)
		}
		for _, k := range []int{0, 1, 4095, n - 1, n, n + 1} {
			f := &failAfter{left: k}
			err := c.write(f)
			if k >= n {
				if err != nil || !bytes.Equal(f.buf.Bytes(), whole.Bytes()) {
					t.Errorf("%s, target failing after %d of %d bytes: err %v, bytes equal %v",
						c.what, k, n, err, bytes.Equal(f.buf.Bytes(), whole.Bytes()))
				}
				continue
			}
			if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), c.what) {
				t.Errorf("%s, target failing after %d of %d bytes: err %v, want the injected error naming the artifact",
					c.what, k, n, err)
			}
		}
	}
}
