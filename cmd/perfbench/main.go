// Command perfbench runs the benchmark-telemetry matrix and gates perf
// regressions against a committed baseline.
//
// Usage:
//
//	perfbench run -out bench/baseline            # regenerate the baseline
//	perfbench run -out out -cpuprofile cpu.pprof -memprofile mem.pprof
//	perfbench compare bench/baseline/BENCH_partition.json bench/out/BENCH_partition.json
//	perfbench compare -md summary.md old.json new.json
//
// run writes one BENCH_<suite>.json per suite; with a fixed seed the files
// are byte-identical across runs. compare diffs a baseline against a fresh
// report and exits 1 if any gated (simulated, deterministic) metric
// changed. On failure the fresh report is left next to the baseline as
// <baseline>.got.json, mirroring the repo's golden-test convention.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fpgapart/internal/perfbench"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:])
	case "compare":
		compareCmd(os.Args[2:])
	case "curve":
		curveCmd(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  perfbench run [-out dir] [-suite name] [-seed n] [-tuples n] [-cpuprofile f] [-memprofile f]
  perfbench compare [-md file] baseline.json current.json
  perfbench curve [-md file] BENCH_memory.json
`)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("perfbench run", flag.ExitOnError)
	var (
		out    = fs.String("out", ".", "directory for the BENCH_<suite>.json files")
		suite  = fs.String("suite", "all", "suite to run ("+strings.Join(perfbench.Suites(), ", ")+") or \"all\"")
		seed   = fs.Int64("seed", 0, "workload generator seed (0 = default 42)")
		tuples = fs.Int("tuples", 0, "partition-suite relation size (0 = default 32768)")
		art    reqtrace.Artifacts
	)
	art.ProfileFlags(fs)
	fs.Parse(args)

	if err := art.Start(); err != nil {
		fatal(err)
	}

	cfg := perfbench.Config{Seed: *seed, Tuples: *tuples}
	suites := perfbench.Suites()
	if *suite != "all" {
		suites = []string{*suite}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, s := range suites {
		rep, err := perfbench.RunSuite(s, cfg)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, perfbench.BenchFileName(s))
		if err := simtrace.WriteFile(path, rep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d records)\n", path, len(rep.Records))
	}
	if err := art.Finish("perfbench", "", nil, nil, nil); err != nil {
		fatal(err)
	}
}

func compareCmd(args []string) {
	fs := flag.NewFlagSet("perfbench compare", flag.ExitOnError)
	md := fs.String("md", "", "append the markdown comparison table to this file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
		os.Exit(2)
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)

	old, err := loadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadReport(newPath)
	if err != nil {
		fatal(err)
	}
	cmp, err := perfbench.Compare(old, cur)
	if err != nil {
		fatal(err)
	}

	dst := os.Stdout
	if *md != "" {
		f, err := os.OpenFile(*md, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := cmp.WriteMarkdown(dst); err != nil {
		fatal(err)
	}

	if cmp.Failed() {
		// Leave the diverging report next to the baseline, like a failing
		// golden test, so CI can upload it and a local run can inspect or
		// promote it.
		got := strings.TrimSuffix(oldPath, ".json") + ".got.json"
		if data, err := os.ReadFile(newPath); err == nil {
			if werr := os.WriteFile(got, data, 0o644); werr == nil {
				fmt.Fprintf(os.Stderr, "perfbench: gated metrics changed; diverging report written to %s\n", got)
			}
		}
		os.Exit(1)
	}
}

// curveCmd renders the memory suite's degradation curve — one row per
// workload × budget cell, spill/recursion/broadcast behaviour across the
// shrinking budget — as a markdown table (for the CI step summary).
func curveCmd(args []string) {
	fs := flag.NewFlagSet("perfbench curve", flag.ExitOnError)
	md := fs.String("md", "", "append the markdown table to this file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	rep, err := loadReport(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if rep.Suite != perfbench.SuiteMemory {
		fatal(fmt.Errorf("%s holds suite %q, want %q", fs.Arg(0), rep.Suite, perfbench.SuiteMemory))
	}

	dst := os.Stdout
	if *md != "" {
		f, err := os.OpenFile(*md, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	get := func(rec perfbench.Record, name string) int64 {
		m, _ := rec.Gated.Metrics.Get(name)
		return m.Value
	}
	fmt.Fprintf(dst, "### Memory degradation curve (`%s`)\n\n", fs.Arg(0))
	fmt.Fprintln(dst, "| scenario | matches | spilled B | spill read B | recursions | max depth | broadcasts | chunks | result drift |")
	fmt.Fprintln(dst, "|---|---:|---:|---:|---:|---:|---:|---:|---|")
	for _, rec := range rep.Records {
		drift := "none"
		if get(rec, "join.delta_matches_vs_unbudgeted") != 0 || get(rec, "join.delta_checksum_vs_unbudgeted") != 0 {
			drift = "**DIVERGED**"
		}
		fmt.Fprintf(dst, "| %s | %d | %d | %d | %d | %d | %d | %d | %s |\n",
			rec.Name,
			get(rec, "join.matches"),
			get(rec, "join.mem_spilled_bytes"),
			get(rec, "join.mem_spill_read_bytes"),
			get(rec, "join.mem_recursions"),
			get(rec, "join.mem_max_depth"),
			get(rec, "join.mem_broadcasts"),
			get(rec, "join.mem_broadcast_chunks"),
			drift)
	}
}

func loadReport(path string) (*perfbench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := perfbench.ParseReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
