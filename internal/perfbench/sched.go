package perfbench

import (
	"fmt"

	"fpgapart/internal/faults"
	"fpgapart/internal/simtrace"
	"fpgapart/partserver"
)

// The sched suite benchmarks the multi-tenant scheduler end to end: a fixed
// synthetic job trace through partserver.Run over a small FPGA+CPU pool,
// fault-free and under the standard fault mix. Everything the scheduler
// observes runs on virtual time, so makespan, queue-wait distribution, FPGA
// utilization, and the placement mix are pure functions of (code, seed) and
// all gate-able — a placement-policy or batching change shows up as a gated
// delta, never as noise.

// schedJobs is the trace length of both sched scenarios. Chosen so the trace
// exercises batching, backpressure, and retries while keeping the suite well
// under a second of host time.
const schedJobs = 24

// schedScenario is one scheduler cell.
type schedScenario struct {
	label    string
	scenario *faults.Scenario
}

// The pool of both sched scenarios.
const (
	schedFPGAs   = 2
	schedWorkers = 2
)

func schedCells(cfg Config) ([]cell, error) {
	var cells []cell
	for _, sc := range []schedScenario{
		{"faultfree", nil},
		{"faulty", &faults.Scenario{
			Seed:        uint64(cfg.Seed),
			DropProb:    0.15,
			CorruptProb: 0.1,
			Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.4}},
			Stragglers:  []faults.Straggler{{Node: 0, Factor: 1.5}},
		}},
	} {
		name := fmt.Sprintf("sched/%df%dw/%djobs/%s", schedFPGAs, schedWorkers, schedJobs, sc.label)
		cells = append(cells, cell{name, func() (simtrace.Snapshot, error) { return runSchedScenario(cfg, sc) }})
	}
	return cells, nil
}

func runSchedScenario(cfg Config, sc schedScenario) (simtrace.Snapshot, error) {
	// Job sizes span cfg.Tuples/8 .. cfg.Tuples: large enough that the FPGA
	// amortizes its reconfiguration cost on the big jobs (so the placement
	// mix is genuinely mixed), small enough for a CI gate.
	jobs, err := partserver.GenerateTrace(uint64(cfg.Seed), schedJobs, partserver.TraceOptions{
		MeanGapUS: 80,
		MinTuples: cfg.Tuples / 8,
		MaxTuples: cfg.Tuples,
	})
	if err != nil {
		return nil, err
	}

	sess := simtrace.NewSession()
	pcfg := partserver.Config{
		FPGAs:   schedFPGAs,
		Workers: schedWorkers,
		Seed:    uint64(cfg.Seed),
		Faults:  sc.scenario,
		Trace:   sess,
	}

	rep, err := partserver.Run(jobs, pcfg)
	if err != nil {
		return nil, err
	}
	for i := range rep.Results {
		if r := &rep.Results[i]; r.Status != partserver.StatusDone {
			return nil, fmt.Errorf("job %d terminated %v: %s", r.ID, r.Status, r.Err)
		}
	}

	// The session snapshot already carries the scheduler's own telemetry —
	// sched.makespan_us, the sched.queue_wait_us and sched.exec_us
	// histograms, placement and retry counters, busy time per pool, and the
	// fold of every job's output checksum. Add the derived utilization and
	// placement-mix ratios the paper's operator would watch.
	snap := sess.Snapshot()
	var (
		util int64
		mix  int64
	)
	if rep.MakespanUS > 0 {
		busy, _ := snap.Get("sched.busy_fpga_us")
		util = busy.Value * 100 / (rep.MakespanUS * schedFPGAs)
	}
	if n := rep.PlacedFPGA + rep.PlacedCPU; n > 0 {
		mix = int64(rep.PlacedFPGA) * 100 / int64(n)
	}
	return snap.With(
		counter("bench.fpga_util_x100", util),
		counter("bench.placed_fpga_x100", mix),
		counter("bench.degraded_jobs", int64(rep.Degraded)),
		counter("bench.failed_instances", int64(len(rep.FailedInstances))),
	), nil
}
