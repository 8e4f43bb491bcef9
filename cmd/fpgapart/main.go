// Command fpgapart partitions a generated relation from the command line
// and prints the run's statistics — a quick way to poke at the simulated
// circuit and the CPU baseline.
//
// Examples:
//
//	fpgapart -backend fpga -n 1048576 -partitions 8192 -format pad
//	fpgapart -backend fpga -layout vrid -dist grid -hash=false
//	fpgapart -backend cpu -threads 8 -n 8388608
//	fpgapart -backend fpga -trace trace.json -metrics metrics.json
package main

import (
	"flag"
	"fmt"
	"os"

	"fpgapart/internal/reqtrace"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

func main() {
	var (
		backend    = flag.String("backend", "fpga", "fpga or cpu")
		n          = flag.Int("n", 1<<20, "number of tuples")
		parts      = flag.Int("partitions", 8192, "fan-out (power of two)")
		width      = flag.Int("width", 8, "tuple width in bytes (8/16/32/64)")
		dist       = flag.String("dist", "random", "linear|random|grid|revgrid|zipf")
		zipf       = flag.Float64("zipf", 1.0, "zipf factor when -dist zipf")
		hash       = flag.Bool("hash", true, "murmur hash partitioning (false = radix)")
		format     = flag.String("format", "pad", "fpga output mode: hist or pad")
		layout     = flag.String("layout", "rid", "fpga input mode: rid or vrid")
		pad        = flag.Float64("padfraction", 0.15, "pad-mode headroom")
		threads    = flag.Int("threads", 0, "cpu backend threads (0 = all cores)")
		raw        = flag.Bool("raw", false, "use the 25.6 GB/s raw wrapper platform")
		interfered = flag.Bool("interfered", false, "use the interfered bandwidth curve")
		seed       = flag.Int64("seed", 1, "generator seed")
		art        reqtrace.Artifacts
	)
	art.TraceFlags(flag.CommandLine)
	flag.Parse()

	fpgaFormat, fpgaLayout, err := partition.ParseMode(*format, *layout)
	if err != nil {
		fatal(err)
	}

	sess := art.Session()
	if sess != nil && *backend != "fpga" {
		fatal(fmt.Errorf("-trace/-metrics require -backend fpga (the cycle-level simulator)"))
	}

	rel, err := generate(*dist, *zipf, *width, *n, *seed)
	if err != nil {
		fatal(err)
	}

	var p partition.Partitioner
	switch *backend {
	case "cpu":
		p, err = partition.NewCPU(partition.CPUOptions{
			Partitions: *parts, Hash: *hash, Threads: *threads,
		})
	case "fpga":
		opts := partition.FPGAOptions{
			Partitions:  *parts,
			TupleWidth:  *width,
			Hash:        *hash,
			Format:      fpgaFormat,
			Layout:      fpgaLayout,
			PadFraction: *pad,
			Interfered:  *interfered,
			Trace:       sess,
		}
		if fpgaLayout == partition.ColumnStore {
			rel = rel.ToColumns()
		}
		if *raw {
			opts.Platform = platform.RawFPGA()
		}
		p, err = partition.NewFPGA(opts)
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}
	if err != nil {
		fatal(err)
	}

	res, err := p.Partition(rel)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("partitioner:   %s\n", p.Name())
	fmt.Printf("tuples:        %d  (%d partitions)\n", res.TotalTuples(), res.NumPartitions())
	kind := "measured"
	switch {
	case res.FellBack():
		kind = "simulated circuit run + measured CPU rerun"
	case res.FPGAWritten():
		kind = "simulated"
	}
	fmt.Printf("elapsed:       %v (%s)\n", res.Elapsed(), kind)
	fmt.Printf("throughput:    %.1f Mtuples/s\n", float64(*n)/res.Elapsed().Seconds()/1e6)
	if res.FellBack() {
		cause := "the input holds the circuit's dummy key"
		if res.Stats.Overflowed {
			cause = "PAD overflow"
		}
		fmt.Printf("note:          %s — fell back to the CPU partitioner\n", cause)
	}
	if res.FPGAWritten() {
		s := res.Stats
		fmt.Printf("cycles:        %d (histogram %d, flush %d)\n", s.Cycles, s.HistogramCycles, s.FlushCycles)
		fmt.Printf("qpi traffic:   %d lines read, %d written, %d dummy tuples\n", s.LinesRead, s.LinesWritten, s.Dummies)
		fmt.Printf("hazards:       %d forwarded, %d stalls\n", s.ForwardedHazards, s.StallsHazard)
	}
	// Partition-size summary.
	min, max := res.Count(0), res.Count(0)
	for i := 1; i < res.NumPartitions(); i++ {
		c := res.Count(i)
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	mean := float64(res.TotalTuples()) / float64(res.NumPartitions())
	fmt.Printf("partition size: min %d, mean %.1f, max %d", min, mean, max)
	if mean > 0 {
		fmt.Printf(" (imbalance %.2fx)", float64(max)/mean)
	}
	fmt.Println()

	if art.Metrics != "" {
		fmt.Println()
		fmt.Print(sess.Summary())
	}
	if err := art.Finish("fpgapart", "", sess, nil, nil); err != nil {
		fatal(err)
	}
}

func generate(dist string, zipf float64, width, n int, seed int64) (*workload.Relation, error) {
	g := workload.NewGenerator(seed)
	switch dist {
	case "linear":
		return g.Relation(workload.Linear, width, n)
	case "random":
		return g.Relation(workload.Random, width, n)
	case "grid":
		return g.Relation(workload.Grid, width, n)
	case "revgrid":
		return g.Relation(workload.ReverseGrid, width, n)
	case "zipf":
		return g.ZipfRelation(zipf, n, width, n)
	default:
		return nil, fmt.Errorf("unknown distribution %q", dist)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpgapart:", err)
	os.Exit(1)
}
