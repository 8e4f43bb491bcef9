package perfbench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"fpgapart/internal/simtrace"
)

// runOnce caches one run per suite — the gate tests mutate parsed copies,
// so a single run each is enough for the whole file.
var (
	reportOnce  sync.Once
	reportBytes = map[string][]byte{}
	reportErr   error
)

func suiteBytes(t *testing.T, suite string) []byte {
	t.Helper()
	reportOnce.Do(func() {
		for _, s := range Suites() {
			r, err := RunSuite(s, Config{})
			if err != nil {
				reportErr = err
				return
			}
			var b bytes.Buffer
			if err := r.WriteJSON(&b); err != nil {
				reportErr = err
				return
			}
			reportBytes[s] = b.Bytes()
		}
	})
	if reportErr != nil {
		t.Fatalf("running suites: %v", reportErr)
	}
	return reportBytes[suite]
}

func suiteReport(t *testing.T, suite string) *Report {
	t.Helper()
	r, err := ParseReport(suiteBytes(t, suite))
	if err != nil {
		t.Fatalf("parsing %s report: %v", suite, err)
	}
	return r
}

// TestReportByteIdentity is the acceptance criterion: running a suite twice
// with the same seed produces byte-identical BENCH JSON.
func TestReportByteIdentity(t *testing.T) {
	for _, suite := range Suites() {
		first := suiteBytes(t, suite)
		r, err := RunSuite(suite, Config{})
		if err != nil {
			t.Fatalf("%s: %v", suite, err)
		}
		var second bytes.Buffer
		if err := r.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second.Bytes()) {
			t.Errorf("%s: two same-seed runs are not byte-identical", suite)
		}
		if len(r.Records) == 0 {
			t.Errorf("%s: no records", suite)
		}
	}
}

// TestRoundTrip checks that a parsed report diffs clean against itself —
// i.e. nothing is lost between the field-by-field writer and the
// encoding/json reader.
func TestRoundTrip(t *testing.T) {
	for _, suite := range Suites() {
		r := suiteReport(t, suite)
		if r.Schema != SchemaVersion || r.Suite != suite {
			t.Fatalf("%s: header = %q/%q", suite, r.Schema, r.Suite)
		}
		cmp, err := Compare(r, suiteReport(t, suite))
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Rows) != 0 {
			t.Errorf("%s: self-compare found %d deltas", suite, len(cmp.Rows))
		}
	}
}

// mutateGated edits one gated metric of the first record that has it.
func mutateGated(t *testing.T, r *Report, name string, f func(*simtrace.Metric)) {
	t.Helper()
	for ri := range r.Records {
		for mi := range r.Records[ri].Gated.Metrics {
			if r.Records[ri].Gated.Metrics[mi].Name == name {
				f(&r.Records[ri].Gated.Metrics[mi])
				return
			}
		}
	}
	t.Fatalf("no record has gated metric %q", name)
}

// TestGateFailsOnSimulatedRegression is the other acceptance criterion: a
// one-cycle-per-kilotuple regression in a simulated metric fails the gate.
func TestGateFailsOnSimulatedRegression(t *testing.T) {
	base := suiteReport(t, SuitePartition)
	cur := suiteReport(t, SuitePartition)
	mutateGated(t, cur, "bench.cycles_per_ktuple", func(m *simtrace.Metric) { m.Value++ })

	cmp, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Fatal("gate passed despite +1 cycles_per_ktuple")
	}
	var hit bool
	for _, row := range cmp.Rows {
		if row.Fails && row.Metric == "bench.cycles_per_ktuple" && row.Change == simtrace.Changed {
			hit = true
		}
	}
	if !hit {
		t.Errorf("no failing changed-row for the injected regression: %+v", cmp.Rows)
	}
}

// TestGateFailsOnRemovedMetric: silently dropping a gated metric (e.g. an
// instrumentation point deleted in a refactor) must fail, not slide by.
func TestGateFailsOnRemovedMetric(t *testing.T) {
	base := suiteReport(t, SuitePartition)
	cur := suiteReport(t, SuitePartition)
	g := &cur.Records[0].Gated.Metrics
	*g = (*g)[1:] // snapshots are sorted, so dropping the head keeps order valid

	cmp, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Fatal("gate passed despite a removed gated metric")
	}
}

// TestGateFailsOnRemovedRecord: a scenario vanishing from the matrix fails.
func TestGateFailsOnRemovedRecord(t *testing.T) {
	base := suiteReport(t, SuitePartition)
	cur := suiteReport(t, SuitePartition)
	cur.Records = cur.Records[1:]

	cmp, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Fatal("gate passed despite a removed record")
	}
}

// TestAddedMetricAndRecordDoNotFail: growth of the matrix is reported but
// non-failing — it forces a baseline regeneration, not a red build.
func TestAddedMetricAndRecordDoNotFail(t *testing.T) {
	base := suiteReport(t, SuitePartition)
	cur := suiteReport(t, SuitePartition)
	cur.Records[0].Gated.Metrics = cur.Records[0].Gated.Metrics.With(
		simtrace.Metric{Name: "zz.new_metric", Kind: simtrace.KindCounter, Value: 7})
	cur.Records = append(cur.Records, Record{Name: "partition/new-scenario"})

	cmp, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Fatalf("gate failed on additions: %+v", cmp.Rows)
	}
	if len(cmp.Rows) != 2 {
		t.Errorf("want 2 note rows (added metric + added record), got %+v", cmp.Rows)
	}
}

func TestCompareRejectsConfigMismatch(t *testing.T) {
	base := suiteReport(t, SuitePartition)
	other := suiteReport(t, SuitePartition)
	other.Seed = base.Seed + 1
	if _, err := Compare(base, other); err == nil {
		t.Error("cross-seed compare accepted")
	}
	join := suiteReport(t, SuiteJoin)
	if _, err := Compare(base, join); err == nil {
		t.Error("cross-suite compare accepted")
	}
}

func TestCompareMarkdown(t *testing.T) {
	base := suiteReport(t, SuitePartition)
	cur := suiteReport(t, SuitePartition)
	mutateGated(t, cur, "circuit.cycles", func(m *simtrace.Metric) { m.Value += 100 })

	cmp, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cmp.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"### perfbench partition: FAIL", "| record | metric |", "circuit.cycles", "| FAIL |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}

	clean, err := Compare(base, suiteReport(t, SuitePartition))
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := clean.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "PASS") || !strings.Contains(b.String(), "byte-identical") {
		t.Errorf("clean markdown = %q", b.String())
	}
}

func TestParseReportRejectsUnknownSchema(t *testing.T) {
	data := bytes.Replace(suiteBytes(t, SuitePartition),
		[]byte(SchemaVersion), []byte("fpgapart.perfbench/v999"), 1)
	if _, err := ParseReport(data); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ParseReport([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestRunSuiteRejectsUnknownSuite(t *testing.T) {
	if _, err := RunSuite("nope", Config{}); err == nil {
		t.Error("unknown suite accepted")
	}
}

// TestKnownScenarios pins the matrix shape: the scenarios the docs name
// must exist, and the skewed PAD run must exercise the fallback path while
// producing the same output checksum as the skewed HIST run (correctness
// under overflow).
func TestKnownScenarios(t *testing.T) {
	r := suiteReport(t, SuitePartition)
	byName := map[string]Record{}
	for _, rec := range r.Records {
		byName[rec.Name] = rec
	}
	hist, ok := byName["partition/HIST/RID/w8/fan256/zipf1.25"]
	if !ok {
		t.Fatal("skewed HIST scenario missing")
	}
	pad, ok := byName["partition/PAD/RID/w8/fan256/zipf1.25"]
	if !ok {
		t.Fatal("skewed PAD scenario missing")
	}
	if m, _ := pad.Gated.Metrics.Get("bench.fell_back"); m.Value != 1 {
		t.Errorf("skewed PAD run did not fall back (fell_back = %d)", m.Value)
	}
	if m, _ := hist.Gated.Metrics.Get("bench.fell_back"); m.Value != 0 {
		t.Errorf("skewed HIST run fell back")
	}
	hc, _ := hist.Gated.Metrics.Get("output.checksum")
	pc, _ := pad.Gated.Metrics.Get("output.checksum")
	if hc.Value != pc.Value {
		t.Errorf("fallback output checksum %d != HIST checksum %d", pc.Value, hc.Value)
	}
	// Each ablation costs cycles and what it names (hazard stalls, lines
	// written) and changes no output tuple.
	for _, ab := range []struct{ ablated, base, grows string }{
		{"partition/HIST/RID/w8/fan64/single/raw/no-forwarding", "partition/HIST/RID/w8/fan64/single/raw", "circuit.stalls.hazard"},
		{"partition/HIST/RID/w8/fan256/uniform/no-combiner", "partition/HIST/RID/w8/fan256/uniform", "qpi.lines_written"},
	} {
		a, b := byName[ab.ablated].Gated.Metrics, byName[ab.base].Gated.Metrics
		for _, name := range []string{"circuit.cycles", ab.grows} {
			am, _ := a.Get(name)
			bm, _ := b.Get(name)
			if am.Value <= bm.Value {
				t.Errorf("%s: %s = %d, %d without the ablation", ab.ablated, name, am.Value, bm.Value)
			}
		}
		as, _ := a.Get("output.checksum")
		bs, _ := b.Get("output.checksum")
		if as.Value != bs.Value || as.Value == 0 {
			t.Errorf("%s: output checksum %d, %d without the ablation", ab.ablated, as.Value, bs.Value)
		}
	}

	dj := suiteReport(t, SuiteDistjoin)
	var faulty *Record
	for i := range dj.Records {
		if strings.HasSuffix(dj.Records[i].Name, "/faulty") {
			faulty = &dj.Records[i]
		}
	}
	if faulty == nil {
		t.Fatal("faulty distjoin scenario missing")
	}
	if m, _ := faulty.Gated.Metrics.Get("dist.degraded"); m.Value != 1 {
		t.Errorf("faulty scenario (with a crash) not degraded")
	}
	if m, _ := faulty.Gated.Metrics.Get("distjoin.retries"); m.Value == 0 {
		t.Errorf("faulty scenario recorded no retries")
	}
	if m, _ := faulty.Gated.Metrics.Get("distjoin.corrupt_pieces"); m.Value == 0 {
		t.Errorf("faulty scenario corrupted no piece")
	}
	for _, name := range []string{"join.matches", "join.checksum_hi", "join.checksum_lo"} {
		f, _ := faulty.Gated.Metrics.Get(name)
		ff, _ := dj.Records[0].Gated.Metrics.Get(name)
		if f.Value != ff.Value {
			t.Errorf("%s: faulty %d, faultfree %d", name, f.Value, ff.Value)
		}
	}
}
