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

func runSchedSuite(cfg Config) ([]Record, error) {
	scenarios := []schedScenario{
		{"faultfree", nil},
		{"faulty", &faults.Scenario{
			Seed:        uint64(cfg.Seed),
			DropProb:    0.15,
			CorruptProb: 0.1,
			Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.4}},
			Stragglers:  []faults.Straggler{{Node: 0, Factor: 1.5}},
		}},
	}
	var records []Record
	for _, sc := range scenarios {
		rec, err := runSchedScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("perfbench: scenario sched/%s: %w", sc.label, err)
		}
		records = append(records, rec)
	}
	return records, nil
}

func runSchedScenario(cfg Config, sc schedScenario) (Record, error) {
	// Job sizes span cfg.Tuples/8 .. cfg.Tuples: large enough that the FPGA
	// amortizes its reconfiguration cost on the big jobs (so the placement
	// mix is genuinely mixed), small enough for a CI gate.
	jobs, err := partserver.GenerateTrace(uint64(cfg.Seed), schedJobs, partserver.TraceOptions{
		MeanGapUS: 80,
		MinTuples: cfg.Tuples / 8,
		MaxTuples: cfg.Tuples,
	})
	if err != nil {
		return Record{}, err
	}

	const nfpga = 2
	sess := simtrace.NewSession()
	pcfg := partserver.Config{
		FPGAs:   nfpga,
		Workers: 2,
		Seed:    uint64(cfg.Seed),
		Faults:  sc.scenario,
		Trace:   sess,
	}

	rep, err := partserver.Run(jobs, pcfg)
	if err != nil {
		return Record{}, err
	}
	for i := range rep.Results {
		if r := &rep.Results[i]; r.Status != partserver.StatusDone {
			return Record{}, fmt.Errorf("job %d terminated %v: %s", r.ID, r.Status, r.Err)
		}
	}

	// The session snapshot already carries the scheduler's own telemetry —
	// sched.makespan_us, the sched.queue_wait_us and sched.exec_us
	// histograms, placement and retry counters, busy time per pool, and the
	// fold of every job's output checksum. Add the derived utilization and
	// placement-mix ratios the paper's operator would watch.
	var (
		util int64
		mix  int64
	)
	if rep.MakespanUS > 0 {
		var busy int64
		for _, m := range sess.Metrics.Snapshot() {
			if m.Name == "sched.busy_fpga_us" {
				busy = m.Value
			}
		}
		util = busy * 100 / (rep.MakespanUS * nfpga)
	}
	if n := rep.PlacedFPGA + rep.PlacedCPU; n > 0 {
		mix = int64(rep.PlacedFPGA) * 100 / int64(n)
	}
	gated := sess.Metrics.Snapshot().With(
		counter("bench.fpga_util_x100", util),
		counter("bench.placed_fpga_x100", mix),
		counter("bench.degraded_jobs", int64(rep.Degraded)),
		counter("bench.failed_instances", int64(len(rep.FailedInstances))),
	)
	return Record{
		Name:  fmt.Sprintf("sched/%df%dw/%djobs/%s", nfpga, 2, schedJobs, sc.label),
		Gated: MetricSet{gated},
	}, nil
}
