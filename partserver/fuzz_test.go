package partserver

import (
	"errors"
	"math"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/workload"
)

// FuzzRun holds Run to one oracle on small generated traces under hostile
// configurations: it returns a validation error, which never wraps
// ErrSimulatorFault, or it ends every job in a terminal status, and every
// job that ends done reports the counts and checksum of a single-tenant
// partition.NewCPU run of its relation (join jobs also the brute-force
// matches). Its virtual times are coherent: a dispatched job arrives, is
// dispatched and ends in that order and is charged at least 1 µs, no done
// job ends after the makespan, and a job that ran once on the straggling
// FPGA 0 is charged at least the straggle factor times the 1 µs floor of
// its healthy charge. A causal capture rides along: one trace per job, each
// conserved and tiling [ArrivalUS, DoneUS) with its spans, with the report's
// status and, when done, its completion time. The inputs reach an empty
// trace, fan-outs 1 and 8192, all-equal keys, queue, batch, FPGA and worker
// counts of −1, 0 and 1, memory budgets below one partition, and
// fault-scenario floats decoded from raw bits, NaN, ±Inf and an overflowing
// straggle factor included.
//
// shape packs the trace's variations: bits 0–1 the fan-out (generated, 1,
// 8192 or 2), bit 2 all keys equal to key, bit 3 every job a join, bit 4 a
// crash of FPGA 0. pool packs FPGAs, Workers, QueueDepth and BatchMax, two
// bits each, as −1 … 2.
func FuzzRun(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint64(1), uint8(0), uint8(0), uint32(0), uint16(0x5A), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(2), uint8(6), uint8(0), uint32(0), uint16(0x5A), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(3), uint8(6), uint8(1), uint32(0), uint16(0x5A), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(4), uint8(6), uint8(2), uint32(0), uint16(0xFA), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(13), uint8(6), uint8(4), uint32(0xFFFFFFFF), uint16(0x56), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(5), uint8(8), uint8(4), uint32(42), uint16(0x5A), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(6), uint8(8), uint8(12), uint32(7), uint16(0x56), int64(100), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(7), uint8(6), uint8(8), uint32(0), uint16(0x00), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(8), uint8(6), uint8(0), uint32(0), uint16(0x55), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(9), uint8(6), uint8(0), uint32(0), uint16(0xAA), int64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(10), uint8(8), uint8(24), uint32(0), uint16(0x5E), int64(64),
		bits(0.2), bits(0.1), bits(2))
	f.Add(uint64(11), uint8(6), uint8(0), uint32(0), uint16(0x5A), int64(0),
		bits(math.NaN()), uint64(0), uint64(0))
	f.Add(uint64(12), uint8(6), uint8(0), uint32(0), uint16(0x5A), int64(0),
		uint64(0), uint64(0), bits(math.Inf(1)))
	f.Add(uint64(14), uint8(6), uint8(8), uint32(0), uint16(0x56), int64(0), uint64(0), uint64(0), bits(1e6))
	f.Add(uint64(14), uint8(6), uint8(8), uint32(0), uint16(0x56), int64(0), uint64(0), uint64(0), bits(1e300))
	f.Fuzz(func(t *testing.T, seed uint64, n, shape uint8, key uint32, pool uint16, budget int64,
		drop, corrupt, straggle uint64) {
		jobs, err := GenerateTrace(seed, int(n)%7, TraceOptions{MinTuples: 1, MaxTuples: 256, MeanGapUS: 20})
		if err != nil {
			t.Fatal(err)
		}
		if shape&8 != 0 {
			joinEvery(t, jobs, 1)
		}
		for i := range jobs {
			j := &jobs[i]
			switch shape & 3 {
			case 1:
				j.FanOut = 1
			case 2:
				j.FanOut = 8192
			case 3:
				j.FanOut = 2
			}
			if shape&4 != 0 {
				for _, rel := range []*workload.Relation{j.Rel, j.Probe} {
					for r := 0; rel != nil && r < rel.NumTuples; r++ {
						rel.SetTuple(r, key, rel.Payload(r))
					}
				}
			}
			j.MemoryBudgetBytes = budget % (4 << 10)
		}
		count := func(k int) int { return int(pool>>(2*k)&3) - 1 }
		cfg := Config{FPGAs: count(0), Workers: count(1), QueueDepth: count(2), BatchMax: count(3), Seed: seed}
		factor := 1.0
		if drop|corrupt|straggle != 0 || shape&16 != 0 {
			cfg.Faults = &faults.Scenario{
				Seed:        seed,
				DropProb:    math.Float64frombits(drop),
				CorruptProb: math.Float64frombits(corrupt),
			}
			if straggle != 0 {
				factor = math.Float64frombits(straggle)
				cfg.Faults.Stragglers = []faults.Straggler{{Node: 0, Factor: factor}}
			}
			if shape&16 != 0 {
				cfg.Faults.Crashes = []faults.Crash{{Node: 0, AfterFraction: 0.5}}
			}
		}

		capt := &reqtrace.Capture{}
		cfg.ReqTrace = capt
		rep, err := Run(jobs, cfg)
		if err != nil {
			if errors.Is(err, ErrSimulatorFault) {
				t.Fatalf("run faulted: %v", err)
			}
			return
		}
		if len(rep.Results) != len(jobs) || len(capt.Traces) != len(jobs) {
			t.Fatalf("%d results and %d traces for %d jobs", len(rep.Results), len(capt.Traces), len(jobs))
		}
		checkConservation(t, capt.Traces)
		for i := range rep.Results {
			r := &rep.Results[i]
			switch r.Status {
			case StatusDone, StatusCancelled, StatusFailed:
			default:
				t.Fatalf("job %d ended %v", i, r.Status)
			}
			checkResult(t, &jobs[i], r)
			if r.DispatchUS >= 0 && (r.DispatchUS < r.ArrivalUS || r.DoneUS < r.DispatchUS || r.ExecUS < 1) {
				t.Fatalf("job %d: arrival %dus, dispatch %dus, done %dus, charged %dus",
					i, r.ArrivalUS, r.DispatchUS, r.DoneUS, r.ExecUS)
			}
			if rt := &capt.Traces[i]; rt.Status != r.Status.String() || (r.Status == StatusDone && rt.DoneUS != r.DoneUS) {
				t.Fatalf("job %d: trace %s at %dus, report %v at %dus", i, rt.Status, rt.DoneUS, r.Status, r.DoneUS)
			}
			if r.Status == StatusDone && r.DoneUS > rep.MakespanUS {
				t.Fatalf("job %d done at %dus, after the makespan %dus", i, r.DoneUS, rep.MakespanUS)
			}
			if r.Status == StatusDone && r.Placement == PlacedFPGA && r.Instance == 0 && r.Attempts == 1 &&
				float64(r.ExecUS) < math.Floor(factor) {
				t.Fatalf("job %d ran once on FPGA 0, straggling %v×, and was charged %dus", i, factor, r.ExecUS)
			}
		}
	})
}
