package partserver

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"fpgapart/internal/hashutil"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// seedFromName derives a deterministic per-test seed, so every property
// test draws its own workload but reruns identically.
func seedFromName(t *testing.T) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, c := range t.Name() {
		h = hashutil.SplitMix64(h ^ uint64(c))
	}
	return h
}

// joinEvery makes every k-th job of a generated trace, from the first, a
// join job like those GenerateTrace draws: a row-layout build side (a column
// becomes its <key, VRID> rows) and a probe side twice its size that cycles
// its keys.
func joinEvery(t *testing.T, jobs []Job, k int) {
	t.Helper()
	for i := 0; i < len(jobs); i += k {
		j := &jobs[i]
		if j.Layout == partition.ColumnStore {
			rows, err := workload.NewRelation(workload.RowLayout, 8, j.Rel.NumTuples)
			if err != nil {
				t.Fatal(err)
			}
			for r, key := range j.Rel.Keys {
				rows.SetTuple(r, key, uint32(r))
			}
			j.Rel, j.Layout = rows, partition.RowStore
		}
		probe, err := workload.NewRelation(workload.RowLayout, 8, 2*j.Rel.NumTuples)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < probe.NumTuples; r++ {
			probe.SetTuple(r, j.Rel.Key(r%j.Rel.NumTuples), uint32(r))
		}
		j.Probe = probe
	}
}

// singleTenantChecksum partitions rel exactly once through the public
// single-tenant API and returns the summed per-partition multiset checksum
// plus the per-partition counts — the reference every scheduled job must
// reproduce regardless of placement, batching, retries, or degradation.
func singleTenantChecksum(t *testing.T, j *Job) (uint32, []int64) {
	t.Helper()
	rel := j.Rel
	if rel.Layout == workload.ColumnLayout {
		// The scheduler's CPU degrade path and the FPGA's VRID mode both
		// emit <key, VRID> tuples; the reference does the same.
		rows, err := workload.NewRelation(workload.RowLayout, 8, rel.NumTuples)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range rel.Keys {
			rows.SetTuple(i, k, uint32(i))
		}
		rel = rows
	}
	p, err := partition.NewCPU(partition.CPUOptions{Partitions: j.FanOut, Hash: j.Hash, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Partition(rel)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint32
	counts := make([]int64, j.FanOut)
	for pi := 0; pi < j.FanOut; pi++ {
		sum += res.PartitionChecksum(pi)
		counts[pi] = res.Count(pi)
	}
	return sum, counts
}

// referenceJoin brute-forces the join cardinality and pair checksum of a
// join job, independent of any partitioning.
func referenceJoin(j *Job) (matches int64, checksum uint64) {
	byKey := map[uint32][]uint32{}
	for i := 0; i < j.Rel.NumTuples; i++ {
		k := j.Rel.Key(i)
		byKey[k] = append(byKey[k], j.Rel.Payload(i))
	}
	for i := 0; i < j.Probe.NumTuples; i++ {
		k := j.Probe.Key(i)
		for _, rPay := range byKey[k] {
			matches++
			checksum += uint64(rPay) + uint64(j.Probe.Payload(i))
		}
	}
	return matches, checksum
}

// checkResult verifies one terminal job against the scheduler-independent
// references: output checksum parity with the single-tenant partitioner,
// valid prefix-sum offsets, and (for join jobs) brute-force join results.
func checkResult(t *testing.T, j *Job, r *JobResult) {
	t.Helper()
	if r.Status != StatusDone {
		return
	}
	if len(r.Counts) != j.FanOut {
		t.Fatalf("job %d: %d counts, want %d", r.ID, len(r.Counts), j.FanOut)
	}
	var total int64
	for p, c := range r.Counts {
		if c < 0 {
			t.Fatalf("job %d: negative count %d in partition %d", r.ID, c, p)
		}
		total += c
	}
	if total != r.Tuples {
		t.Fatalf("job %d: counts sum to %d, Tuples = %d", r.ID, total, r.Tuples)
	}
	if r.Tuples != int64(j.Rel.NumTuples) {
		t.Fatalf("job %d: %d tuples out, %d in", r.ID, r.Tuples, j.Rel.NumTuples)
	}

	wantSum, wantCounts := singleTenantChecksum(t, j)
	for p, c := range wantCounts {
		if r.Counts[p] != c {
			t.Fatalf("job %d: partition %d holds %d tuples, single-tenant run holds %d",
				r.ID, p, r.Counts[p], c)
		}
	}
	if j.Probe == nil {
		if r.Checksum != wantSum {
			t.Fatalf("job %d (%v, attempts %d, degraded %v): checksum %08x, single-tenant %08x",
				r.ID, r.Placement, r.Attempts, r.Degraded, r.Checksum, wantSum)
		}
		return
	}
	wantMatches, wantJoin := referenceJoin(j)
	if r.Matches != wantMatches {
		t.Fatalf("job %d: %d matches, brute force finds %d", r.ID, r.Matches, wantMatches)
	}
	if r.Checksum != fold64(wantJoin) {
		t.Fatalf("job %d: join checksum %08x, brute force %08x", r.ID, r.Checksum, fold64(wantJoin))
	}
}

// TestPropertyChecksumParity is the core multi-tenancy property: for random
// job mixes over random pool shapes, every completed job's output is
// exactly what a single-tenant run of the same job produces — the scheduler
// adds concurrency, never changes results.
func TestPropertyChecksumParity(t *testing.T) {
	seed := seedFromName(t)
	for round := 0; round < 4; round++ {
		rseed := hashutil.SplitMix64(seed ^ uint64(round))
		jobs, err := GenerateTrace(rseed, 10, TraceOptions{MeanGapUS: 50})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			FPGAs:   1 + int(rseed%3),
			Workers: 1 + int((rseed>>8)%2),
			Seed:    rseed,
		}
		rep, err := Run(jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Results {
			r := &rep.Results[i]
			if r.Status != StatusDone {
				t.Fatalf("round %d: job %d not done: %v %q", round, r.ID, r.Status, r.Err)
			}
			checkResult(t, &jobs[r.ID], r)
		}
	}
}

// TestPropertyBackpressureNoDrops floods a depth-1 admission queue with
// simultaneous arrivals: backpressure may delay jobs arbitrarily, but every
// job must still complete with correct output and a coherent timeline.
func TestPropertyBackpressureNoDrops(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 24, TraceOptions{MeanGapUS: 1, MinTuples: 256, MaxTuples: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].ArrivalUS = 0 // everyone at once
	}
	rep, err := Run(jobs, Config{FPGAs: 1, Workers: 1, Seed: seed, QueueDepth: 1, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(rep.Results), len(jobs))
	}
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Status != StatusDone {
			t.Fatalf("job %d dropped under backpressure: %v %q", r.ID, r.Status, r.Err)
		}
		if r.DispatchUS < r.ArrivalUS || r.DoneUS < r.DispatchUS {
			t.Fatalf("job %d: incoherent timeline arrival=%d dispatch=%d done=%d",
				r.ID, r.ArrivalUS, r.DispatchUS, r.DoneUS)
		}
		if r.QueueWaitUS != r.DispatchUS-r.ArrivalUS {
			t.Fatalf("job %d: queue wait %d ≠ dispatch−arrival %d",
				r.ID, r.QueueWaitUS, r.DispatchUS-r.ArrivalUS)
		}
		checkResult(t, &jobs[r.ID], r)
	}
}

// TestPropertyTimeoutAndCancel pins deadline semantics: a job whose
// deadline passes while queued is timed out (or cancelled) and never runs;
// a dispatched job is never preempted.
func TestPropertyTimeoutAndCancel(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 12, TraceOptions{MeanGapUS: 1, MinTuples: 4096, MaxTuples: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].ArrivalUS = 0
		switch i % 3 {
		case 1:
			jobs[i].TimeoutUS = 1
		case 2:
			jobs[i].CancelAtUS = 2
		}
	}
	rep, err := Run(jobs, Config{FPGAs: 1, Workers: 1, Seed: seed, QueueDepth: 2, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		r := &rep.Results[i]
		switch r.Status {
		case StatusDone:
			checkResult(t, &jobs[r.ID], r)
		case StatusTimedOut:
			if jobs[r.ID].TimeoutUS == 0 {
				t.Fatalf("job %d timed out without a timeout", r.ID)
			}
			if r.Placement != PlacedNone || r.Tuples != 0 {
				t.Fatalf("job %d: timed out yet ran (%v, %d tuples)", r.ID, r.Placement, r.Tuples)
			}
		case StatusCancelled:
			if jobs[r.ID].CancelAtUS == 0 {
				t.Fatalf("job %d cancelled without a cancel time", r.ID)
			}
			if r.Placement != PlacedNone || r.Tuples != 0 {
				t.Fatalf("job %d: cancelled yet ran (%v, %d tuples)", r.ID, r.Placement, r.Tuples)
			}
		default:
			t.Fatalf("job %d: unexpected status %v %q", r.ID, r.Status, r.Err)
		}
	}
}

// TestPropertyValidation locks down the request-validation boundary.
func TestPropertyValidation(t *testing.T) {
	rel, err := workload.NewGenerator(1).Relation(workload.Random, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		job  Job
	}{
		{"nil relation", Job{FanOut: 8}},
		{"fan-out 1", Job{Rel: rel, FanOut: 1}},
		{"fan-out not a power of two", Job{Rel: rel, FanOut: 12}},
		{"negative arrival", Job{Rel: rel, FanOut: 8, ArrivalUS: -1}},
		{"column job on row relation", Job{Rel: rel, FanOut: 8, Layout: partition.ColumnStore}},
	}
	for _, c := range cases {
		if _, err := Run([]Job{c.job}, Config{}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := Run(nil, Config{FPGAs: -1}); err == nil {
		t.Error("negative FPGA count accepted")
	}
}

// TestStatusStrings keeps the enum strings (used in report JSON) stable.
func TestStatusStrings(t *testing.T) {
	for want, s := range map[string]fmt.Stringer{
		"done": StatusDone, "timedout": StatusTimedOut,
		"cancelled": StatusCancelled, "failed": StatusFailed,
		"none": PlacedNone, "fpga": PlacedFPGA, "cpu": PlacedCPU,
	} {
		if s.String() != want {
			t.Errorf("%T(%v) = %q, want %q", s, s, s.String(), want)
		}
	}
}

// TestPlacementIndependence runs the same RID, VRID and join jobs on an
// FPGA-only and on a CPU-only pool: both go through package partition, so
// every job reports the same output shape, checksum and join result wherever
// it ran. A PAD job that overflows on the FPGA still lands on the CPU, and
// its charge is the CPU run's plus the aborted attempt's circuit time, which
// the overflow error carries.
func TestPlacementIndependence(t *testing.T) {
	jobs, err := GenerateTrace(seedFromName(t), 24, TraceOptions{MeanGapUS: 50})
	if err != nil {
		t.Fatal(err)
	}
	onFPGA, err := Run(jobs, Config{FPGAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	onCPU, err := Run(jobs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var rid, vrid, joins int
	for i := range jobs {
		f, c := &onFPGA.Results[i], &onCPU.Results[i]
		if f.Status != StatusDone || c.Status != StatusDone || f.Placement != PlacedFPGA || c.Placement != PlacedCPU {
			t.Fatalf("job %d: FPGA pool %v on %v, CPU pool %v on %v", i, f.Status, f.Placement, c.Status, c.Placement)
		}
		if !slices.Equal(f.Counts, c.Counts) ||
			f.Tuples != c.Tuples || f.Checksum != c.Checksum || f.Matches != c.Matches {
			t.Errorf("job %d: FPGA pool reports %d tuples, checksum %08x, %d matches; CPU pool %d, %08x, %d",
				i, f.Tuples, f.Checksum, f.Matches, c.Tuples, c.Checksum, c.Matches)
		}
		switch {
		case jobs[i].Probe != nil:
			joins++
		case jobs[i].Layout == partition.ColumnStore:
			vrid++
		default:
			rid++
		}
	}
	if rid == 0 || vrid == 0 || joins == 0 {
		t.Fatalf("trace has %d RID, %d VRID and %d join jobs; need all three", rid, vrid, joins)
	}

	// Large enough that the FPGA is the predicted first choice where there
	// is one.
	rel, err := workload.NewGenerator(3).ZipfRelation(1.5, 1<<20, 8, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Rel: rel, FanOut: 64, Hash: true, Format: partition.PadMode}
	p, err := partition.NewFPGA(partition.FPGAOptions{Partitions: 64, Hash: true, Format: partition.PadMode,
		PadFraction: 0.5, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	var ov *partition.OverflowError
	if _, err := p.Partition(rel); !errors.As(err, &ov) || ov.Aborted.Cycles == 0 {
		t.Fatalf("PAD run of the skewed relation: err = %v, want an OverflowError with the aborted cycles", err)
	}
	abortedUS := ceilDiv(ov.Aborted.Cycles*1e6, int64(platform.XeonFPGA().FPGAClockHz))
	degraded, err := Run([]Job{job}, Config{FPGAs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run([]Job{job}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, c := &degraded.Results[0], &direct.Results[0]
	if !d.Degraded || d.Placement != PlacedCPU || c.Degraded {
		t.Fatalf("degraded %v on %v, direct degraded %v", d.Degraded, d.Placement, c.Degraded)
	}
	if d.ExecUS != c.ExecUS+abortedUS {
		t.Errorf("degraded job charged %d µs, want the CPU run's %d + the aborted attempt's %d", d.ExecUS, c.ExecUS, abortedUS)
	}
	if d.Checksum != c.Checksum || !slices.Equal(d.Counts, c.Counts) {
		t.Errorf("degraded job's output differs from the CPU-only run's")
	}
}

// TestFPGAJoinPaysSnoopPenalty: a join job's build and probe run on the CPU
// over partitions its slot wrote. On an FPGA instance they pay hashjoin's
// Table 1 penalties — the sequential one on the build side, the probe's
// memory-bound share of the random one on the probe side — on top of the
// join rate; on a CPU worker they pay the join rate alone.
func TestFPGAJoinPaysSnoopPenalty(t *testing.T) {
	const n, probe = 1000, 2000
	job := mustJob(t, 16, n, 0)
	job.Format = partition.HistMode
	job.Probe = mustJob(t, 16, probe, 1).Rel

	m := platform.XeonFPGA().Coherence
	probePenalty := 1 + (m.RandPenalty()-1)*m.ProbeMemFraction
	ruleUS := (n*m.SeqPenalty() + probe*probePenalty) * 1e6 / joinRate
	for _, tc := range []struct {
		cfg    Config
		on     Placement
		wantUS float64
	}{
		{Config{FPGAs: 1, Workers: 0}, PlacedFPGA, ruleUS},
		{Config{FPGAs: 0, Workers: 1}, PlacedCPU, (n + probe) * 1e6 / joinRate},
	} {
		s, err := NewScheduler(tc.cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		for _, ok := s.NextEventUS(); ok; _, ok = s.NextEventUS() {
			s.Step()
		}
		r := s.Result(id)
		if r.Status != StatusDone || r.Placement != tc.on || r.Degraded || r.Attempts != 1 {
			t.Fatalf("join ended %v on %v (degraded %v, %d attempts), want done on %v at the first attempt",
				r.Status, r.Placement, r.Degraded, r.Attempts, tc.on)
		}
		partUS := s.cpuChargeUS(n, probe)
		if tc.on == PlacedFPGA {
			partUS = ceilDiv(s.jobs[id].out.cycles*1e6, int64(s.platform.FPGAClockHz))
		}
		if joinUS := r.ExecUS - partUS; joinUS != int64(math.Ceil(tc.wantUS)) {
			t.Errorf("join on %v charged %d µs of build+probe, want ⌈%.2f⌉", tc.on, joinUS, tc.wantUS)
		}
	}
}

// TestJobsKeepEveryTuple is the partserver row of the sentinel audit: on an
// FPGA-only pool, in all four circuit modes, partition and join jobs over
// relations keyed all or partly with the circuit's dummy key 0xFFFFFFFF,
// or all 0, end done with the counts, checksum and matches of the
// single-tenant reference — or are degraded off the FPGA (a PAD overflow,
// or tuples the circuit's output cannot hold) and, with no CPU worker to
// take them, fail. None ends done with tuples missing.
func TestJobsKeepEveryTuple(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		name string
		key  func(i int) uint32
	}{
		{"all-dummy", func(int) uint32 { return 0xFFFFFFFF }},
		{"some-dummy", func(i int) uint32 {
			if i%3 == 0 {
				return 0xFFFFFFFF
			}
			return uint32(i)
		}},
		{"key-0", func(int) uint32 { return 0 }},
	} {
		var jobs []Job
		for _, format := range []partition.Format{partition.HistMode, partition.PadMode} {
			for _, layout := range []partition.Layout{partition.RowStore, partition.ColumnStore} {
				for _, join := range []bool{false, true} {
					if join && layout == partition.ColumnStore {
						continue
					}
					rel, err := workload.NewRelation(workload.RowLayout, 8, n)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						rel.SetTuple(i, tc.key(i), uint32(i))
					}
					j := Job{Rel: rel, FanOut: 16, Hash: true, Format: format, Layout: layout, ArrivalUS: int64(len(jobs))}
					if layout == partition.ColumnStore {
						j.Rel = rel.ToColumns()
					}
					if join {
						probe, err := workload.NewRelation(workload.RowLayout, 8, 2*n)
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < 2*n; i++ {
							probe.SetTuple(i, tc.key(i%n), uint32(i))
						}
						j.Probe = probe
					}
					jobs = append(jobs, j)
				}
			}
		}
		rep, err := Run(jobs, Config{FPGAs: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			r := &rep.Results[i]
			if r.Status != StatusDone && !(r.Status == StatusFailed && r.Degraded) {
				t.Errorf("%s: job %d ended %v (degraded %v, error %q)", tc.name, i, r.Status, r.Degraded, r.Err)
			}
			checkResult(t, &jobs[i], r)
		}
	}
}
