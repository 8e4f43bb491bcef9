package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestSkewDetectOverflowsBeyondThreshold(t *testing.T) {
	res := result[*SkewDetectResult](t, "skewdetect")
	byFactor := map[float64]struct{ overflows, total int }{}
	for _, p := range res.Points {
		e := byFactor[p.ZipfFactor]
		e.total++
		if p.Overflowed {
			e.overflows++
			if p.DetectedAtFraction <= 0 || p.DetectedAtFraction > 1 {
				t.Errorf("detection fraction %v out of range", p.DetectedAtFraction)
			}
		}
		byFactor[p.ZipfFactor] = e
	}
	// Mild skew survives in the (large) majority of runs — at reduced scale
	// the 15% padding is within a few sigma of the partition-size tail, so
	// an occasional seed may still trip it — while strong skew always
	// overflows (Section 5.4's threshold is a row of the claims table).
	if e := byFactor[0.1]; e.overflows > e.total/2 {
		t.Errorf("zipf 0.1 overflowed %d/%d times", e.overflows, e.total)
	}
	if e := byFactor[1.0]; e.overflows != e.total {
		t.Errorf("zipf 1.0 overflowed only %d/%d times", e.overflows, e.total)
	}
}

func TestFutureOrdering(t *testing.T) {
	res := result[*FutureResult](t, "future")
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Today's link < raw wrapper; the future platform beats today's link.
	if res.Rows[0].MTuplesPerS >= res.Rows[1].MTuplesPerS {
		t.Errorf("Xeon+FPGA (%v) should be slower than the raw wrapper (%v)",
			res.Rows[0].MTuplesPerS, res.Rows[1].MTuplesPerS)
	}
	if res.Rows[2].MTuplesPerS <= res.Rows[0].MTuplesPerS {
		t.Errorf("future platform (%v) should beat today's link (%v)",
			res.Rows[2].MTuplesPerS, res.Rows[0].MTuplesPerS)
	}
}

// TestDistributedShape asserts the scale-out shape on its deterministic side:
// with every doubling of the node count the join phase parallelizes (the
// most-loaded node builds and probes fewer tuples, starting from all of both
// relations on one node), the circuit's simulated partitioning time shrinks
// and the exchanged traffic grows. JoinSec is the host-measured time of that
// build+probe — a millisecond per node, timed while other packages' tests
// compete for the cores — and is logged beside the tuple counts.
func TestDistributedShape(t *testing.T) {
	res := result[*DistributedResult](t, "dist")
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	prev := map[bool]DistributedRow{}
	for _, r := range res.Rows {
		p, ok := prev[r.FPGA]
		prev[r.FPGA] = r
		if !ok {
			if r.Nodes != 1 || r.BytesExchanged != 0 {
				t.Errorf("first %s row: %d nodes exchanged %d bytes", r.backend(), r.Nodes, r.BytesExchanged)
			}
			if want := int64(2 * res.TuplesPerRelation); r.JoinTuples != want {
				t.Errorf("%s: the single node joins %d tuples, want %d", r.backend(), r.JoinTuples, want)
			}
			continue
		}
		if r.Nodes != 2*p.Nodes {
			t.Fatalf("%s rows go from %d to %d nodes", r.backend(), p.Nodes, r.Nodes)
		}
		// The join phase parallelizes across nodes.
		if r.JoinTuples >= p.JoinTuples {
			t.Errorf("%s: %d-node join (%d tuples on the most-loaded node) not smaller than %d-node (%d)",
				r.backend(), r.Nodes, r.JoinTuples, p.Nodes, p.JoinTuples)
		}
		t.Logf("%s join on %d nodes: %d tuples in %.4f s; on %d: %d in %.4f s (host-measured)",
			r.backend(), p.Nodes, p.JoinTuples, p.JoinSec, r.Nodes, r.JoinTuples, r.JoinSec)
		if r.BytesExchanged <= p.BytesExchanged {
			t.Errorf("%s: %d nodes exchanged %d bytes, %d nodes %d", r.backend(), r.Nodes, r.BytesExchanged, p.Nodes, p.BytesExchanged)
		}
		if r.FPGA && r.PartitionSec >= p.PartitionSec {
			t.Errorf("simulated partitioning on %d nodes (%v s) not faster than on %d (%v s)", r.Nodes, r.PartitionSec, p.Nodes, p.PartitionSec)
		}
	}
}

func TestCompressSweepShape(t *testing.T) {
	res := result[*CompressResult](t, "compress")
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Ratio and compressed throughput grow with run length; run length 1
	// (incompressible under RLE) must be slower than plain.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Ratio <= res.Rows[i-1].Ratio {
			t.Errorf("ratio not increasing: %+v", res.Rows)
		}
	}
	if res.Rows[0].CompMTps >= res.Rows[0].PlainMTps {
		t.Errorf("incompressible column should be slower compressed: %+v", res.Rows[0])
	}
	// Ceiling analysis: in HIST mode the histogram pass is circuit-bound at
	// one lane group per cycle (N/8 cycles) no matter how few lines are
	// read, so even infinite compression only accelerates the second pass:
	// (0.563 + 2.02) / (0.625 + 1.62) ≈ 1.15× on the Xeon+FPGA link.
	last := res.Rows[len(res.Rows)-1]
	if last.CompMTps <= last.PlainMTps*1.10 {
		t.Errorf("long runs should speed partitioning ≥1.1x: %+v", last)
	}
}

// TestExtensionRunnersRender looks the four extension experiments up by id,
// the way cmd/repro -exp does, and renders each under its title.
func TestExtensionRunnersRender(t *testing.T) {
	for _, id := range []string{"skewdetect", "future", "dist", "compress"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		res := result[Result](t, id)
		var buf bytes.Buffer
		if err := e.Text(&buf, res.CSV(), res.Notes()); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "=== "+e.Title+" ===") || len(res.CSV()) < 2 {
			t.Errorf("%s rendered no table:\n%s", id, buf.String())
		}
	}
}
