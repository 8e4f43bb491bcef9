package partserver

import (
	"testing"

	"fpgapart/internal/joincore"
	"fpgapart/internal/simtrace"
	"fpgapart/workload"
)

// budgetJobs builds a small join-job trace: each tenant joins a uniform
// build side against a skewed probe side.
func budgetJobs(t *testing.T, n int, budget int64) []Job {
	t.Helper()
	jobs := make([]Job, n)
	for i := range jobs {
		g := workload.NewGenerator(int64(100 + i))
		rel, err := g.Relation(workload.Random, 8, 2000)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := g.ZipfRelation(1.25, 1<<10, 8, 3000)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{
			Rel: rel, Probe: probe, FanOut: 16, Hash: true,
			ArrivalUS:         int64(i) * 50,
			MemoryBudgetBytes: budget,
		}
	}
	return jobs
}

// TestBudgetedJobsReproduceAndCharge runs the same join trace unbudgeted and
// under a tight per-tenant budget: results must be identical, the budgeted
// run must report spill traffic, be charged more virtual time for it, and
// surface the spill counter in its trace.
func TestBudgetedJobsReproduceAndCharge(t *testing.T) {
	cfg := func() Config {
		return Config{FPGAs: 1, Workers: 1, Seed: 9, Trace: simtrace.NewSession()}
	}

	free := cfg()
	repFree, err := Run(budgetJobs(t, 6, 0), free)
	if err != nil {
		t.Fatal(err)
	}

	// Budget below every per-partition build footprint (~2000/16 tuples per
	// partition) so each partition of every job spills.
	tight := int64(2000/16) * joincore.BuildTupleBytes / 2
	lim := cfg()
	repLim, err := Run(budgetJobs(t, 6, tight), lim)
	if err != nil {
		t.Fatal(err)
	}

	var spilled int64
	for i := range repLim.Results {
		rf, rl := &repFree.Results[i], &repLim.Results[i]
		if rf.Status != StatusDone || rl.Status != StatusDone {
			t.Fatalf("job %d: status %v / %v", i, rf.Status, rl.Status)
		}
		if rl.Matches != rf.Matches || rl.Checksum != rf.Checksum {
			t.Fatalf("job %d: budgeted join diverged: %d/%08x vs %d/%08x",
				i, rl.Matches, rl.Checksum, rf.Matches, rf.Checksum)
		}
		if rf.SpilledBytes != 0 {
			t.Fatalf("job %d: unbudgeted run reported spill %d", i, rf.SpilledBytes)
		}
		if rl.SpilledBytes == 0 {
			t.Fatalf("job %d: tight budget did not spill", i)
		}
		if rl.ExecUS <= rf.ExecUS {
			t.Fatalf("job %d: spill traffic not charged: %dµs vs %dµs", i, rl.ExecUS, rf.ExecUS)
		}
		spilled += rl.SpilledBytes
	}
	if repLim.MakespanUS <= repFree.MakespanUS {
		t.Fatalf("budgeted makespan %d not above unbudgeted %d", repLim.MakespanUS, repFree.MakespanUS)
	}

	// The spill counter appears only on the budgeted run's trace.
	find := func(s *simtrace.Session) (int64, bool) {
		for _, m := range s.Metrics.Snapshot() {
			if m.Name == "sched.mem_spilled_bytes" {
				return m.Value, true
			}
		}
		return 0, false
	}
	if _, ok := find(free.Trace); ok {
		t.Fatal("unbudgeted trace contains sched.mem_spilled_bytes")
	}
	got, ok := find(lim.Trace)
	if !ok || got != spilled {
		t.Fatalf("sched.mem_spilled_bytes = %d,%v; want %d", got, ok, spilled)
	}
}

// TestBudgetedJobsDeterministic reruns a budgeted trace and requires
// identical reports, spill accounting included.
func TestBudgetedJobsDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := Run(budgetJobs(t, 4, 4096), Config{FPGAs: 1, Workers: 1, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	for i := range a.Results {
		ra, rb := &a.Results[i], &b.Results[i]
		if ra.SpilledBytes != rb.SpilledBytes ||
			ra.Checksum != rb.Checksum || ra.ExecUS != rb.ExecUS {
			t.Fatalf("job %d not reproducible:\n%+v\nvs\n%+v", i, ra, rb)
		}
	}
}
