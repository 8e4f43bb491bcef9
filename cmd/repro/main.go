// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -exp all                # every experiment at the default scale
//	repro -exp fig9 -scale 0.125  # one experiment at 1/8 of paper scale
//	repro -exp fig9 -csv out      # the same, and out/fig9.csv from the same run
//	repro -list
//
// Scale multiplies the paper's relation sizes (1.0 = the full 128 M-tuple
// workloads); the default 1/16 finishes the whole suite in minutes on a
// laptop while preserving every reported shape.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fpgapart/experiments"
	"fpgapart/internal/reqtrace"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id or \"all\"")
		list       = flag.Bool("list", false, "list experiments and exit")
		scale      = flag.Float64("scale", 1.0/16, "fraction of the paper's relation sizes")
		seed       = flag.Int64("seed", 42, "workload generator seed")
		maxThreads = flag.Int("threads", 0, "thread sweep ceiling (0 = min(10, cores))")
		csvDir     = flag.String("csv", "", "also write <dir>/<exp>.csv per experiment")
		art        reqtrace.Artifacts
	)
	art.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if *scale <= 0 || *scale > 1 {
		fmt.Fprintf(os.Stderr, "repro: -scale %g outside (0, 1]\n", *scale)
		os.Exit(1)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *csvDir != "" {
		// A mistyped directory fails here, not after the first run.
		if info, err := os.Stat(*csvDir); err != nil || !info.IsDir() {
			fmt.Fprintf(os.Stderr, "-csv %s: not a directory\n", *csvDir)
			os.Exit(2)
		}
	}

	if err := art.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, MaxThreads: *maxThreads}.WithDefaults()
	fmt.Printf("fpgapart reproduction — scale %.4g, seed %d, ≤%d threads\n", cfg.Scale, cfg.Seed, cfg.MaxThreads)

	// One CSV() per run feeds both the text and the file.
	run := func(e experiments.Experiment) error {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return err
		}
		rows := res.CSV()
		if err := e.Text(os.Stdout, rows, res.Notes()); err != nil {
			return err
		}
		done := "finished"
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := writeCSV(path, rows); err != nil {
				return err
			}
			done = "csv written to " + path
		}
		fmt.Printf("[%s %s in %v]\n", e.ID, done, time.Since(start).Round(time.Millisecond))
		return nil
	}

	exps := experiments.All()
	if *exp != "all" {
		e, err := experiments.Find(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fmt.Fprintln(os.Stderr, "use -list to see available experiments")
			os.Exit(2)
		}
		exps = []experiments.Experiment{e}
	}
	for _, e := range exps {
		if err := run(e); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
	if err := art.Finish("repro", "", nil, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func writeCSV(path string, rows [][]string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(file).WriteAll(rows); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
