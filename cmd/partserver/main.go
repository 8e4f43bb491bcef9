// Command partserver runs the multi-tenant FPGA/CPU job scheduler over a
// deterministic synthetic job trace and prints per-job outcomes and
// scheduler metrics.
//
// Usage:
//
//	partserver run -jobs 32 -fpgas 2 -workers 2 -seed 7
//	partserver run -jobs 64 -faulty -trace trace.json -metrics metrics.json
//
// The same -seed and trace parameters always produce byte-identical
// placement decisions, simtrace output, and results; -trace writes the
// per-resource timeline in the Chrome trace-event format and -metrics the
// scheduler counter snapshot. -reqtrace and -flight attach a causal capture
// that partserver.Run fills: the per-job latency breakdowns and the
// scheduler's flight-recorder postmortem, written even when the run fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partserver"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "run" {
		usage()
		os.Exit(2)
	}
	runCmd(os.Args[2:])
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  partserver run [-jobs n] [-fpgas n] [-workers n] [-seed n] [-queue n] [-batch n]
                 [-gap us] [-faulty] [-trace file] [-metrics file]
                 [-reqtrace file] [-flight file] [-v]
`)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("partserver run", flag.ExitOnError)
	var (
		jobs    = fs.Int("jobs", 32, "number of jobs in the generated trace")
		fpgas   = fs.Int("fpgas", 2, "simulated FPGA partitioner instances")
		workers = fs.Int("workers", 1, "CPU partitioner workers")
		seed    = fs.Uint64("seed", 7, "scheduler + trace seed")
		queue   = fs.Int("queue", 0, "admission queue depth (0 = default 8)")
		batchN  = fs.Int("batch", 0, "max jobs per FPGA batch (0 = default 4)")
		gap     = fs.Int64("gap", 0, "mean virtual inter-arrival gap in µs (0 = default 500)")
		faulty  = fs.Bool("faulty", false, "inject FPGA faults: 10% transient faults plus a mid-trace crash of instance 0")
		verbose = fs.Bool("v", false, "print one line per job")
		art     reqtrace.Artifacts
	)
	art.TraceFlags(fs)
	art.CaptureFlags(fs)
	fs.Parse(args)

	jl, err := partserver.GenerateTrace(*seed, *jobs, partserver.TraceOptions{MeanGapUS: *gap})
	if err != nil {
		fatal(err)
	}
	cfg := partserver.Config{
		FPGAs:      *fpgas,
		Workers:    *workers,
		Seed:       *seed,
		QueueDepth: *queue,
		BatchMax:   *batchN,
	}
	if *faulty {
		cfg.Faults = &faults.Scenario{
			Seed:     *seed,
			DropProb: 0.1,
			Crashes:  []faults.Crash{{Node: 0, AfterFraction: 0.5}},
		}
	}
	sess := simtrace.NewSession()
	cfg.Trace = sess
	cfg.ReqTrace = art.Capture()

	rep, err := partserver.Run(jl, cfg)
	if err != nil {
		fatal(art.Finish("partserver", "job", sess, cfg.ReqTrace, err))
	}

	if *verbose {
		for _, r := range rep.Results {
			fmt.Printf("job %3d  %-9s %-4s inst=%-2d attempts=%d degraded=%-5v wait=%6dus exec=%6dus tuples=%7d checksum=%08x",
				r.ID, r.Status, r.Placement, r.Instance, r.Attempts, r.Degraded, r.QueueWaitUS, r.ExecUS, r.Tuples, r.Checksum)
			if r.Matches > 0 {
				fmt.Printf(" matches=%d", r.Matches)
			}
			if r.Err != "" {
				fmt.Printf(" err=%q", r.Err)
			}
			fmt.Println()
		}
	}
	fmt.Printf("jobs=%d makespan=%dus placed fpga=%d cpu=%d degraded=%d failed_instances=%v\n",
		len(rep.Results), rep.MakespanUS, rep.PlacedFPGA, rep.PlacedCPU, rep.Degraded, rep.FailedInstances)
	fmt.Print(sess.Summary())

	if err := art.Finish("partserver", "job", sess, cfg.ReqTrace, nil); err != nil {
		fatal(err)
	}
}

// fatal prints err after the command name, once: errors from the partserver
// package already begin with it.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partserver:", strings.TrimPrefix(err.Error(), "partserver: "))
	os.Exit(1)
}
