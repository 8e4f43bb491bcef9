package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs all six workloads at tiny scale, untraced and traced, and
// checks that each result line carries exactly the declared metric names,
// each with its unit, and that every op verified.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(wl.name, 42, scales["tiny"], 0, traced, filepath.Join(dir, wl.name+".spans.json"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", wl.name, traced, res.Attempted, res.Failed, res.Failures)
			}
			want := gateMetrics()
			if traced {
				want = driverLayers()
			}
			line := driverLine(res)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the result line, %d declared", wl.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: result line lacks %s", wl.name, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, declared %q", wl.name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: gated end-to-end metric %s is zero", wl.name, d.Name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, wl.name+".spans.json")); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", wl.name, err)
				}
				checkIsolation(t, res)
			}
		}
	}
}

// checkIsolation asserts that the workloads isolate the layers they claim
// to: no circuit metrics on cpu_partition, no cpupart metrics on
// circuit_steady.
func checkIsolation(t *testing.T, res *Result) {
	t.Helper()
	banned := map[string]string{"cpu_partition": "core.", "circuit_steady": "cpupart."}[res.Workload]
	if banned == "" {
		return
	}
	for name := range res.Layers {
		if strings.HasPrefix(name, banned) {
			t.Errorf("%s reports %s", res.Workload, name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly what the
// harness prints and stays inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeDeclaration(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -declare`")
	}
	var got declaration
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) < 2 || len(got.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(got.Workloads))
	}
	if len(got.EndToEnd) < 1 || len(got.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(got.EndToEnd))
	}
	if len(got.PerLayer) < 1 || len(got.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(got.PerLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %v", name, unit, unitRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range got.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in [0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
}

// TestCompare checks -compare's three verdicts and the exact rule.
func TestCompare(t *testing.T) {
	set := func(host, hostSpread, p99 float64) ResultSet {
		e := metricSet{}
		e.set("host_mtuples_per_s", host)
		e.set("sim_p99_us", p99)
		return ResultSet{Workloads: []WorkloadRow{{Name: "serve_steady",
			Untraced: &Result{Workload: "serve_steady", Seed: 42, EndToEnd: e,
				Spread: map[string]float64{"host_mtuples_per_s": hostSpread}}}}}
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		b       ResultSet
		worse   bool
		verdict string
	}{
		{"same", set(19.0, 0.01, 210), false, "ok"},
		{"slower", set(12.0, 0.01, 210), true, "worse"},
		{"noisy", set(12.0, 0.30, 210), false, "unresolved"},
		{"inexact", set(19.0, 0.01, 211), true, "must repeat exactly"},
	} {
		a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, tc.name+".json")
		if err := writeJSON(a, set(19.0, 0.01, 210)); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(b, tc.b); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		worse, err := compareFiles(&out, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse = %v, want %v with verdict %q; output:\n%s", tc.name, worse, tc.worse, tc.verdict, out.String())
		}
	}
}
