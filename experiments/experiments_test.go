package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"fpgapart/partition"
	"fpgapart/workload"
)

// tiny is a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 1.0 / 1024, Seed: 7, MaxThreads: 2}
}

// fixtures holds the one run of each experiment under tiny() that every
// test in the package reads: the render, CSV and shape tests all look at the
// same result, so an experiment executes once per test binary.
var fixtures = func() map[string]func() (Result, error) {
	m := map[string]func() (Result, error){}
	for _, e := range All() {
		m[e.ID] = sync.OnceValues(func() (Result, error) { return e.Run(tiny()) })
	}
	// Figure 9 at 8 Mi tuples, where the circuit's fixed flush (§4.6) has
	// faded enough for the bars' claims.
	m["fig9@8Mi"] = sync.OnceValues(func() (Result, error) {
		return as(RunFigure9)(Config{Scale: float64(8<<20) / 128e6, Seed: tiny().Seed, MaxThreads: tiny().MaxThreads})
	})
	return m
}()

// result returns experiment id's fixture result as an R (Result itself, or
// the experiment's typed result).
func result[R Result](t *testing.T, id string) R {
	t.Helper()
	// The runs -short leaves out, wherever they are asked for.
	if (id == "fig8" || id == "fig9@8Mi") && testing.Short() {
		t.Skip("simulates 64 MB per tuple width, or 8 Mi tuples per bar")
	}
	run := fixtures[id]
	if run == nil {
		t.Fatalf("no experiment %q", id)
	}
	got, err := run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	res, ok := got.(R)
	if !ok {
		t.Fatalf("%s: result is a %T", id, got)
	}
	return res
}

// TestAllExperimentsRenderSomething holds Experiment.Text to its contract for
// every experiment: the title line, then each CSV record on a line of its
// own with its cells in order, then every note.
func TestAllExperimentsRenderSomething(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			res := result[Result](t, e.ID)
			rows, notes := res.CSV(), res.Notes()
			var buf bytes.Buffer
			if err := e.Text(&buf, rows, notes); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(buf.String(), "\n")
			if want := 3 + len(rows) + len(notes); len(lines) != want {
				t.Fatalf("%d lines, want %d:\n%s", len(lines), want, buf.String())
			}
			if lines[0] != "" || lines[1] != "=== "+e.Title+" ===" || lines[len(lines)-1] != "" {
				t.Errorf("title lines %q, %q; last line %q", lines[0], lines[1], lines[len(lines)-1])
			}
			for i, rec := range rows {
				rest := lines[2+i]
				for _, cell := range rec {
					at := strings.Index(rest, cell)
					if at < 0 {
						t.Errorf("record %d: cell %q missing from %q", i, cell, lines[2+i])
						break
					}
					rest = rest[at+len(cell):]
				}
			}
			for i, n := range notes {
				if got := lines[2+len(rows)+i]; got != n {
					t.Errorf("note %d: %q, want %q", i, got, n)
				}
			}
		})
	}
}

// ours returns what the exhibit's experiment reports for each series.
func ours(t *testing.T, exhibit string) map[string]float64 {
	m := map[string]float64{}
	switch exhibit {
	case "Table 1":
		for _, r := range result[*Table1Result](t, "table1").Rows {
			m[fmt.Sprint(r.LastWriter, map[bool]string{false: " sequential", true: " random"}[r.Random])] = r.Seconds
		}
	case "Table 2":
		for _, r := range result[*Table2Result](t, "table2").Rows {
			w := fmt.Sprint(r.TupleWidth, " B ")
			m[w+"logic"], m[w+"BRAM"], m[w+"DSP"] = r.LogicPct, r.BRAMPct, r.DSPPct
		}
	case "Section 4.8":
		for _, r := range result[*ModelValidationResult](t, "model").Rows {
			m[r.Mode] = r.TotalRate() / 1e6
		}
	case "Figure 9":
		for _, b := range result[*Figure9Result](t, "fig9@8Mi").Bars {
			m[b.Name] = b.MTuplesPerS
		}
	}
	return m
}

// checkClaims holds each gated row of the claims table whose exhibit is
// exhibit ("" for every row) to what its experiment's Run returns, and logs
// every such row beside the paper's value.
func checkClaims(t *testing.T, exhibit string) {
	for _, c := range Claims() {
		if exhibit != "" && c.Exhibit != exhibit {
			continue
		}
		t.Run(c.Exhibit+"/"+c.Series, func(t *testing.T) {
			got, ok := ours(t, c.Exhibit)[c.Series]
			if !ok {
				t.Fatalf("%s reports no %q", c.Exhibit, c.Series)
			}
			t.Logf("%s %s: ours %.6g, paper %.6g, Δ %+.1f%%", c.Exhibit, c.Series, got, c.Paper, 100*(got-c.Paper)/c.Paper)
			if c.Lo != c.Hi && (got < c.Lo || got > c.Hi) {
				t.Errorf("%.6g is outside [%.6g, %.6g]: %s", got, c.Lo, c.Hi, c.Why)
			}
		})
	}
}

// TestPaperClaims is the whole claims table, the one view of every paper
// number beside ours.
func TestPaperClaims(t *testing.T) { checkClaims(t, "") }

func TestTable1MatchesPaper(t *testing.T) {
	checkClaims(t, "Table 1")
	// Not a paper number: the random-read penalty hybrid probes pay.
	if p := result[*Table1Result](t, "table1").RandPenalty; p < 2 || p > 2.3 {
		t.Errorf("RandPenalty = %v", p)
	}
}

func TestTable2RowsMatchPaper(t *testing.T) {
	if n := len(result[*Table2Result](t, "table2").Rows); n != 4 {
		t.Fatalf("%d rows", n)
	}
	checkClaims(t, "Table 2")
}

func TestFindExperiment(t *testing.T) {
	if _, err := Find("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 1.0/16 || c.Seed != 42 || c.MaxThreads < 1 {
		t.Errorf("defaults: %+v", c)
	}
	sweep := Config{MaxThreads: 4}.threadSweep()
	if len(sweep) != 3 || sweep[2] != 4 {
		t.Errorf("threadSweep(4) = %v", sweep)
	}
	if got := (Config{MaxThreads: 1}).threadSweep(); len(got) != 1 || got[0] != 1 {
		t.Errorf("threadSweep(1) = %v", got)
	}
}

func TestFigure2ShapeAndHostMeasurement(t *testing.T) {
	res := result[*Figure2Result](t, "fig2")
	if len(res.Points) != 11 {
		t.Fatalf("%d points, want 11", len(res.Points))
	}
	for i, p := range res.Points {
		if p.CPUAlone <= p.CPUInterfered || p.FPGAAlone <= p.FPGAInterfered {
			t.Errorf("point %d: interference not reducing bandwidth", i)
		}
		if p.HostMeasured <= 0 {
			t.Errorf("point %d: host measurement missing", i)
		}
	}
	// CPU bandwidth grows with read fraction.
	if res.Points[10].CPUAlone <= res.Points[0].CPUAlone {
		t.Error("CPU curve not increasing with read fraction")
	}
}

// TestMeasureMixBandwidthAnyLength: a buffer well below the next power of two
// (what -scale 0.001 asks for) keeps the random writes in range.
func TestMeasureMixBandwidthAnyLength(t *testing.T) {
	if bw := MeasureMixBandwidth(make([]uint64, 70000), 0, 7); bw <= 0 {
		t.Errorf("bandwidth %v", bw)
	}
}

func TestFigure3RadixVsHashRobustness(t *testing.T) {
	res := result[*Figure3Result](t, "fig3")
	if len(res.Series) != 8 {
		t.Fatalf("%d series, want 8", len(res.Series))
	}
	byKey := map[string]Figure3Series{}
	for _, s := range res.Series {
		byKey[s.Distribution.String()+"/"+method(s.Hash)] = s
	}
	// Hash partitioning is balanced for every distribution (Figure 3b) —
	// with ~128 tuples/partition, Poisson noise allows ≈1.5× at the tail.
	for _, d := range []string{"linear", "random", "grid", "reverse-grid"} {
		if im := byKey[d+"/hash"].Imbalance; im > 1.7 {
			t.Errorf("hash on %s imbalance %.2f, want near 1", d, im)
		}
	}
	// Radix partitioning degenerates on grid keys (Figure 3a): grid leaves
	// a large share of partitions empty and doubles the load elsewhere;
	// reverse grid floods a handful of partitions.
	grid := byKey["grid/radix"]
	if grid.Imbalance < 1.8 || grid.EmptyParts == 0 {
		t.Errorf("radix on grid: imbalance %.2f, empty %d — expected skew", grid.Imbalance, grid.EmptyParts)
	}
	rev := byKey["reverse-grid/radix"]
	if rev.Imbalance < 10 || rev.EmptyParts == 0 {
		t.Errorf("radix on reverse grid: imbalance %.2f, empty %d — expected severe skew", rev.Imbalance, rev.EmptyParts)
	}
	// Radix on linear keys is perfectly balanced.
	if byKey["linear/radix"].Imbalance > 1.05 {
		t.Errorf("radix on linear imbalance %.2f", byKey["linear/radix"].Imbalance)
	}
}

func TestFigure4ProducesAllSeries(t *testing.T) {
	res := result[*Figure4Result](t, "fig4")
	sweep := tiny().WithDefaults().threadSweep()
	if want := 5 * len(sweep); len(res.Points) != want {
		t.Fatalf("%d points, want %d", len(res.Points), want)
	}
	for _, p := range res.Points {
		if p.MTuplesPerS <= 0 {
			t.Errorf("non-positive throughput: %+v", p)
		}
	}
}

func TestFigure8ShapeHolds(t *testing.T) {
	res := result[*Figure8Result](t, "fig8")
	if len(res.Points) != 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	for i := 1; i < 4; i++ {
		if res.Points[i].MTuplesPerS >= res.Points[i-1].MTuplesPerS {
			t.Error("tuples/s should fall with width")
		}
	}
	// Model tracks simulation within 25% even at tiny scale.
	for _, p := range res.Points {
		if p.ModelMTuplesPerS <= 0 {
			t.Errorf("missing model prediction at %dB", p.TupleWidth)
		}
		rel := math.Abs(p.MTuplesPerS-p.ModelMTuplesPerS) / p.ModelMTuplesPerS
		if rel > 0.20 {
			t.Errorf("width %d: sim %f vs model %f (%.0f%% apart)",
				p.TupleWidth, p.MTuplesPerS, p.ModelMTuplesPerS, rel*100)
		}
	}
}

func TestModelValidationTable(t *testing.T) {
	res := result[*ModelValidationResult](t, "model")
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if rate := res.Rows[0].CircuitRate(); math.Abs(rate-1.6e9) > 1e6 {
		t.Errorf("circuit rate %v", rate)
	}
}

func TestFigure10ConsistentAcrossFanOuts(t *testing.T) {
	res := result[*Figure10Result](t, "fig10")
	// At test scale the fixed flush cost dominates the FPGA time, so the
	// paper's flatness claim is asserted at real scale in core's tests and
	// recorded in EXPERIMENTS.md; here the invariants are correctness ones:
	// identical match counts and positive phase times for every fan-out.
	var matches []int64
	for _, p := range res.Points {
		matches = append(matches, p.Matches)
		if p.PartitionSec <= 0 || p.BuildProbeSec <= 0 || p.TotalSec <= 0 {
			t.Errorf("non-positive phase times: %+v", p)
		}
		if p.System == "fpga-PAD/RID" && p.ModelPartitionSec <= 0 {
			t.Errorf("missing model prediction: %+v", p)
		}
	}
	for _, m := range matches[1:] {
		if m != matches[0] {
			t.Fatalf("match counts differ across configurations: %v", matches)
		}
	}
}

func TestFigure11VRIDPartitionsFaster(t *testing.T) {
	res := result[*Figure11Result](t, "fig11")
	pts := res.Results[workload.WorkloadA]
	var rid, vrid float64
	for _, p := range pts {
		if p.Threads != 1 {
			continue
		}
		switch p.System {
		case "fpga-PAD/RID":
			rid = p.PartitionSec
		case "fpga-PAD/VRID":
			vrid = p.PartitionSec
		}
	}
	if vrid <= 0 || rid <= 0 || vrid >= rid {
		t.Errorf("VRID partitioning (%.4fs) should beat RID (%.4fs)", vrid, rid)
	}
}

// TestFigure12HashHelpsGridKeys asserts the cause the paper gives for
// Figure 12, which is deterministic, and not its host-time effect, which on
// a few milliseconds of build+probe is not: the radix bits of reverse-grid
// keys (workload E) land in 8 of the 8192 partitions, murmur hashing spreads
// them over all of them, and random keys (workload C) fill every partition
// either way.
func TestFigure12HashHelpsGridKeys(t *testing.T) {
	const parts = 8192
	relR := func(id workload.WorkloadID) *workload.Relation {
		t.Helper()
		spec, err := workload.Spec(id)
		if err != nil {
			t.Fatal(err)
		}
		in, err := spec.Scaled(tiny().Scale).Generate(tiny().Seed)
		if err != nil {
			t.Fatal(err)
		}
		return in.R
	}
	fill := func(rel *workload.Relation, hash bool) (filled int, largest int64) {
		t.Helper()
		p, err := partition.NewCPU(partition.CPUOptions{Partitions: parts, Hash: hash, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Partition(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < res.NumPartitions(); i++ {
			if c := res.Count(i); c > 0 {
				filled++
				if c > largest {
					largest = c
				}
			}
		}
		return filled, largest
	}
	grid, random := relR(workload.WorkloadE), relR(workload.WorkloadC)
	if n, max := fill(grid, false); n != 8 || max != 16384 {
		t.Errorf("radix on reverse-grid keys fills %d partitions (largest %d), want 8 (largest 16384)", n, max)
	}
	if n, max := fill(grid, true); n != parts || max != 32 {
		t.Errorf("hash on reverse-grid keys fills %d partitions (largest %d), want %d (largest 32)", n, max, parts)
	}
	for _, hash := range []bool{false, true} {
		if n, _ := fill(random, hash); n != parts {
			t.Errorf("random keys (hash=%v) fill %d partitions, want %d", hash, n, parts)
		}
	}

	res := result[*Figure12Result](t, "fig12")
	for _, p := range res.Results[workload.WorkloadE] {
		if p.Threads == tiny().MaxThreads && p.System != "fpga-hash" {
			t.Logf("%s build+probe on reverse-grid keys: %.4fs (host-measured, not asserted)", p.System, p.BuildProbeSec)
		}
	}
}

func TestFigure13HistNeverFallsBack(t *testing.T) {
	res := result[*Figure13Result](t, "fig13")
	if len(res.Points) != 14 {
		t.Fatalf("%d points, want 14", len(res.Points))
	}
	for i, p := range res.Points {
		if p.FellBack {
			t.Errorf("HIST-mode join fell back at zipf %.2f", res.Factors[i])
		}
		if p.Matches <= 0 {
			t.Errorf("no matches at zipf %.2f (%s)", res.Factors[i], p.System)
		}
	}
	// CPU and hybrid must agree on matches per factor.
	for i := 0; i+1 < len(res.Points); i += 2 {
		if res.Points[i].Matches != res.Points[i+1].Matches {
			t.Errorf("zipf %.2f: CPU %d matches, hybrid %d",
				res.Factors[i], res.Points[i].Matches, res.Points[i+1].Matches)
		}
	}
}
