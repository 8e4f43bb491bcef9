package core

import (
	"errors"
	"testing"

	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

// circuitSamples extracts the cumulative values of one circuit counter
// series from the trace, in emission order.
func circuitSamples(tr *simtrace.Tracer, name string) []int64 {
	var out []int64
	for _, e := range tr.Events() {
		if e.Kind == simtrace.SampleEvent && e.Comp == "circuit" && e.Name == name {
			out = append(out, e.Value)
		}
	}
	return out
}

// TestTraceCycleInvariants checks the circuit's conservation laws through
// the trace itself: within every sample window the cumulative tuples-out
// never exceeds tuples-in (tuples only leave after they entered), both
// series are monotone, the final accounting balances (every input tuple
// comes out, and the written lines hold exactly the outputs plus the flush
// dummies), and — on the raw 25.6 GB/s wrapper, where the link is not the
// bottleneck — the no-skew workload sustains the paper's one line per cycle
// through the datapath in at least one steady-state window.
func TestTraceCycleInvariants(t *testing.T) {
	const (
		n      = 100000
		window = 64
	)
	rel := genRelation(t, workload.Random, 8, n, 53)
	sess := simtrace.NewSession()
	sess.SampleWindow = window

	plat := platform.RawFPGA()
	cfg := Config{
		NumPartitions: 64, TupleWidth: 8, Hash: true,
		Format: PAD, Layout: RID, PadFraction: 0.5,
		Trace: sess,
	}
	c, err := NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := c.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}

	in := circuitSamples(sess.Tracer, "tuples_in")
	outS := circuitSamples(sess.Tracer, "tuples_out")
	if len(in) == 0 || len(in) != len(outS) {
		t.Fatalf("got %d tuples_in and %d tuples_out samples", len(in), len(outS))
	}

	// Per-window conservation and monotonicity.
	for i := range in {
		if outS[i] > in[i] {
			t.Fatalf("window %d: tuples_out %d exceeds tuples_in %d", i, outS[i], in[i])
		}
		if i > 0 && (in[i] < in[i-1] || outS[i] < outS[i-1]) {
			t.Fatalf("window %d: counter series not monotone (in %d→%d, out %d→%d)",
				i, in[i-1], in[i], outS[i-1], outS[i])
		}
	}

	// Final accounting: everything in came out, and the written lines carry
	// exactly the outputs plus the PAD flush dummies.
	if stats.TuplesIn != int64(n) || stats.TuplesOut != int64(n) {
		t.Errorf("tuples in/out = %d/%d, want %d/%d", stats.TuplesIn, stats.TuplesOut, n, n)
	}
	tpl := int64(out.TuplesPerLine())
	if got := stats.LinesWritten * tpl; got != stats.TuplesOut+stats.Dummies {
		t.Errorf("written slots %d != tuples out %d + dummies %d",
			got, stats.TuplesOut, stats.Dummies)
	}

	// Steady state: with the link out of the way, some full window must
	// ingest window×tuples-per-line tuples — one cache line per cycle.
	var maxDelta int64
	for i := 1; i < len(in); i++ {
		if d := in[i] - in[i-1]; d > maxDelta {
			maxDelta = d
		}
	}
	if want := int64(window) * tpl; maxDelta < want {
		t.Errorf("best window ingested %d tuples, want ≥ %d (1 line/cycle over %d cycles)",
			maxDelta, want, window)
	}
}

// TestQPIWriteGrantsAndCommittedLines: the qpi.lines_written counter and
// Stats.LinesWritten are two facts, not one counted twice. The counter
// counts write grants on the link; LinesWritten counts the lines the
// write-back committed. A PAD overflow is detected on a line whose write was
// already granted, so an aborted run's link carried exactly one line more
// than it committed; every other run commits every granted line. Both hold
// with and without the write combiner.
func TestQPIWriteGrantsAndCommittedLines(t *testing.T) {
	grid := genRelation(t, workload.ReverseGrid, 8, 40000, 42)
	random := genRelation(t, workload.Random, 8, 40000, 43)
	for _, noWC := range []bool{false, true} {
		for _, c := range []struct {
			name   string
			rel    *workload.Relation
			format Format
			hash   bool
			abort  bool
		}{
			{"pad_radix_reverse_grid", grid, PAD, false, true},
			{"pad_hash_reverse_grid", grid, PAD, true, false},
			{"pad_hash_random", random, PAD, true, false},
			{"hist_radix_reverse_grid", grid, HIST, false, false},
		} {
			sess := simtrace.NewSession()
			cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: c.hash, Format: c.format, Layout: RID,
				PadFraction: 0.5, DisableWriteCombiner: noWC, Trace: sess}
			_, stats, err := mustCircuit(t, cfg).Partition(c.rel.Clone())
			if aborted := errors.Is(err, ErrPartitionOverflow); aborted != c.abort || aborted != stats.Overflowed || (err != nil && !aborted) {
				t.Fatalf("%s (no combiner %v): err %v, Overflowed %v; want an abort %v", c.name, noWC, err, stats.Overflowed, c.abort)
			}
			want := int64(0)
			if stats.Overflowed {
				want = 1
			}
			if got := sess.Metrics.Counter("qpi.lines_written").Value() - stats.LinesWritten; got != want {
				t.Errorf("%s (no combiner %v): %d write grants, %d committed lines: differ by %d, want %d",
					c.name, noWC, stats.LinesWritten+got, stats.LinesWritten, got, want)
			}
		}
	}
}
