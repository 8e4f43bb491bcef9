// Command joinbench runs radix hash joins — pure CPU, hybrid CPU+FPGA, or
// non-partitioned — on the paper's workloads and prints the phase breakdown.
// With -nodes it runs the distributed join over the simulated RDMA fabric
// instead, optionally under a deterministic fault scenario.
//
// Examples:
//
//	joinbench -workload A -scale 0.0625 -system hybrid -format pad
//	joinbench -workload E -system cpu -hash=false
//	joinbench -workload A -zipf 1.25 -system hybrid -format hist
//	joinbench -workload A -scale 0.01 -nodes 4 -fault-seed 7 \
//	    -fault-corrupt 0.01 -fault-crash 1 -fault-degrade 0:2:0.25
package main

import (
	"flag"
	"fmt"
	"os"

	"fpgapart/distjoin"
	"fpgapart/hashjoin"
	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partition"
	"fpgapart/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "A", "Table 4 workload: A, B, C, D or E")
		scale   = flag.Float64("scale", 1.0/16, "fraction of the paper's relation sizes")
		system  = flag.String("system", "hybrid", "cpu, hybrid or nopart")
		parts   = flag.Int("partitions", 8192, "fan-out")
		threads = flag.Int("threads", 0, "build+probe threads (0 = all cores)")
		hash    = flag.Bool("hash", true, "murmur hash partitioning")
		format  = flag.String("format", "pad", "hybrid FPGA mode: hist or pad")
		vrid    = flag.Bool("vrid", false, "hybrid column-store (VRID) mode")
		zipf    = flag.Float64("zipf", 0, "skew S with this Zipf factor (>0)")
		seed    = flag.Int64("seed", 42, "generator seed")
		budget  = flag.Int64("budget", 0, "join build memory budget in bytes (0 = unlimited; spills, recurses and broadcasts as needed, same result)")

		nodes = flag.Int("nodes", 0, "run the distributed join on this many simulated nodes (0 = local join)")

		faultSeed       = flag.Uint64("fault-seed", 1, "fault scenario seed (reproducible)")
		faultDrop       = flag.Float64("fault-drop", 0, "per-message drop probability")
		faultCorrupt    = flag.Float64("fault-corrupt", 0, "per-message corruption probability")
		faultDelayProb  = flag.Float64("fault-delay", 0, "per-message delay probability")
		faultDelayUS    = flag.Float64("fault-delay-us", 50, "mean extra delay of delayed messages (µs)")
		faultCrash      = flag.Int("fault-crash", -1, "node to fail-stop mid-exchange (-1 = none)")
		faultCrashAfter = flag.Float64("fault-crash-after", 0.5, "fraction of the exchange after which the node crashes")
		faultDegrade    = flag.String("fault-degrade", "", "degraded link as src:dst:factor (e.g. 0:2:0.25)")
		faultStraggle   = flag.String("fault-straggle", "", "straggler as node:factor (e.g. 3:2.5)")

		art reqtrace.Artifacts
	)
	art.TraceFlags(flag.CommandLine)
	art.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if *scale <= 0 || *scale > 1 {
		fatal(fmt.Errorf("-scale %g outside (0, 1]", *scale))
	}

	fpgaFormat, _, err := partition.ParseMode(*format, "rid")
	if err != nil {
		fatal(err)
	}

	if err := art.Start(); err != nil {
		fatal(err)
	}

	spec, err := workload.Spec(workload.WorkloadID(*wl))
	if err != nil {
		fatal(err)
	}
	spec = spec.Scaled(*scale)
	var in *workload.JoinInput
	if *zipf > 0 {
		in, err = spec.GenerateSkewed(*seed, *zipf)
	} else {
		in, err = spec.Generate(*seed)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s: R %d ⋈ S %d tuples, %s keys\n",
		spec.ID, spec.TuplesR, spec.TuplesS, spec.Distribution)

	sess := art.Session()
	if *nodes > 0 {
		scenario, err := buildScenario(*faultSeed, *faultDrop, *faultCorrupt, *faultDelayProb,
			*faultDelayUS, *faultCrash, *faultCrashAfter, *faultDegrade, *faultStraggle)
		if err != nil {
			fatal(err)
		}
		runDistributed(in, *nodes, *parts, *threads, *system, fpgaFormat, scenario, sess)
	} else {
		runLocal(in, spec, *system, fpgaFormat, *vrid, hashjoin.Options{
			Partitions:        *parts,
			Threads:           *threads,
			Hash:              *hash,
			Trace:             sess,
			MemoryBudgetBytes: *budget,
		})
	}
	if art.Metrics != "" {
		fmt.Println()
		fmt.Print(sess.Summary())
	}
	if err := art.Finish("joinbench", "", sess, nil, nil); err != nil {
		fatal(err)
	}
}

func runLocal(in *workload.JoinInput, spec workload.WorkloadSpec, system string, format partition.Format,
	vrid bool, opts hashjoin.Options) {
	var res *hashjoin.Result
	var err error
	switch system {
	case "cpu":
		res, err = hashjoin.CPU(in.R, in.S, opts)
	case "hybrid":
		opts.Format = format
		if format == partition.PadMode {
			opts.PadFraction = 0.5
		}
		r, s := in.R, in.S
		if vrid {
			opts.Layout = partition.ColumnStore
			r, s = r.ToColumns(), s.ToColumns()
		}
		res, err = hashjoin.Hybrid(r, s, opts)
	case "nopart":
		res, err = hashjoin.NonPartitioned(in.R, in.S, opts)
	default:
		fatal(fmt.Errorf("unknown system %q", system))
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("system:        %s (%s), %d threads\n", system, res.PartitionerName, res.Threads)
	fmt.Printf("matches:       %d (checksum %#x)\n", res.Matches, res.Checksum)
	fmt.Printf("partition R:   %v\n", res.PartitionR)
	fmt.Printf("partition S:   %v\n", res.PartitionS)
	fmt.Printf("build:         %v\n", res.Build)
	fmt.Printf("probe:         %v\n", res.Probe)
	fmt.Printf("total:         %v  (%.1f Mtuples/s over |R|+|S|)\n",
		res.Total, float64(spec.TuplesR+spec.TuplesS)/res.Total.Seconds()/1e6)
	if m := res.Memory; m != nil {
		fmt.Printf("memory:        budget %d B, high water %d B\n", m.BudgetBytes, m.HighWaterBytes)
		fmt.Printf("adaptivity:    %d in-memory, %d reversed, %d spilled (%d B), %d recursions (depth %d), %d broadcasts (%d chunks)\n",
			m.InMemory, m.Reversals, m.SpilledPartitions, m.SpilledBytes, m.Recursions, m.MaxDepth, m.Broadcasts, m.BroadcastChunks)
	}
	if res.CoherencePenalized {
		fmt.Println("note:          build+probe includes the Table 1 snoop penalty")
	}
	if res.FellBack {
		fmt.Println("note:          PAD overflow — partitioning fell back to the CPU")
	}
}

// buildScenario assembles the fault scenario from the CLI flags; it returns
// nil when every fault knob is at its default (fault-free run).
func buildScenario(seed uint64, drop, corrupt, delayProb, delayUS float64,
	crash int, crashAfter float64, degrade, straggle string) (*faults.Scenario, error) {
	s := &faults.Scenario{
		Seed: seed, DropProb: drop, CorruptProb: corrupt,
		DelayProb: delayProb, DelayUS: delayUS,
	}
	active := drop > 0 || corrupt > 0 || delayProb > 0
	if crash >= 0 {
		s.Crashes = append(s.Crashes, faults.Crash{Node: crash, AfterFraction: crashAfter})
		active = true
	}
	if degrade != "" {
		l, err := faults.ParseLink(degrade)
		if err != nil {
			return nil, fmt.Errorf("-fault-degrade: %w", err)
		}
		s.Links = append(s.Links, l)
		active = true
	}
	if straggle != "" {
		st, err := faults.ParseStraggler(straggle)
		if err != nil {
			return nil, fmt.Errorf("-fault-straggle: %w", err)
		}
		s.Stragglers = append(s.Stragglers, st)
		active = true
	}
	if !active {
		return nil, nil
	}
	return s, nil
}

func runDistributed(in *workload.JoinInput, nodes, parts, threads int, system string, format partition.Format,
	scenario *faults.Scenario, sess *simtrace.Session) {
	opts := distjoin.Options{
		Nodes:             nodes,
		PartitionsPerNode: parts / nodes,
		Threads:           threads,
		Faults:            scenario,
		Trace:             sess,
	}
	if system == "hybrid" {
		opts.UseFPGA = true
		opts.Format = format
	}
	res, err := distjoin.Join(in.R, in.S, opts)
	if err != nil {
		fatal(err)
	}
	kind := "cpu"
	if opts.UseFPGA {
		kind = "fpga"
	}
	fmt.Printf("system:        distributed/%s, %d nodes × %d partitions\n", kind, res.Nodes, opts.PartitionsPerNode)
	fmt.Printf("matches:       %d (checksum %#x)\n", res.Matches, res.Checksum)
	fmt.Printf("partition:     %v\n", res.PartitionTime)
	fmt.Printf("exchange:      %v  (%.1f MB payload, %.1f MB resent)\n",
		res.ExchangeTime, float64(res.BytesExchanged)/1e6, float64(res.ResentBytes)/1e6)
	fmt.Printf("local join:    %v\n", res.JoinTime)
	fmt.Printf("total:         %v\n", res.Total)
	if scenario != nil {
		fmt.Printf("faults:        seed %d, %d retries, %d corrupt pieces\n",
			scenario.Seed, res.Retries, res.CorruptPieces)
	}
	if res.Degraded {
		fmt.Printf("note:          DEGRADED — node(s) %v crashed; survivors took over their partitions\n", res.FailedNodes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joinbench:", err)
	os.Exit(1)
}
