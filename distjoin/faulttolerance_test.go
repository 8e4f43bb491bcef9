package distjoin

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/rdma"
	"fpgapart/partition"
	"fpgapart/workload"
)

// acceptance scenario of the fault-tolerance layer: node crash mid-exchange
// + 1% message corruption + one degraded link.
func acceptanceScenario(seed uint64) *faults.Scenario {
	return &faults.Scenario{
		Seed:        seed,
		CorruptProb: 0.01,
		Links:       []faults.Link{{Src: 0, Dst: 2, Factor: 0.25}},
		Crashes:     []faults.Crash{{Node: 1, AfterFraction: 0.5}},
	}
}

func TestFaultScenarioPreservesJoinResult(t *testing.T) {
	in := testInput(t, 1<<13, 1<<14)
	// A flow's pieces share messages, so the 1 % corruption needs hundreds
	// of messages to hit: at this input size that takes 256-byte ones.
	fab := rdma.FDRCluster(4)
	fab.MessageBytes = 256
	opts := Options{Nodes: 4, PartitionsPerNode: 64, Threads: 2, Fabric: fab}
	clean, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = acceptanceScenario(2026)
	faulty, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Matches != clean.Matches || faulty.Checksum != clean.Checksum {
		t.Fatalf("degraded join %d/%#x, fault-free %d/%#x",
			faulty.Matches, faulty.Checksum, clean.Matches, clean.Checksum)
	}
	if !faulty.Degraded {
		t.Error("crash scenario not reported as degraded")
	}
	if len(faulty.FailedNodes) != 1 || faulty.FailedNodes[0] != 1 {
		t.Errorf("failed nodes %v, want [1]", faulty.FailedNodes)
	}
	if faulty.Retries == 0 {
		t.Error("1% corruption produced zero retries")
	}
	if faulty.CorruptPieces == 0 {
		t.Error("1% corruption produced zero corrupt pieces")
	}
	if faulty.ResentBytes == 0 {
		t.Error("no resent bytes despite corruption and a crash")
	}
	if faulty.ExchangeTime <= clean.ExchangeTime {
		t.Errorf("faulty exchange (%v) not slower than clean (%v)",
			faulty.ExchangeTime, clean.ExchangeTime)
	}
	if clean.Degraded || clean.Retries != 0 || clean.CorruptPieces != 0 || len(clean.FailedNodes) != 0 {
		t.Errorf("fault-free run reported faults: %+v", clean)
	}
}

// TestNoOpScenarioEqualsNoScenario: a scenario that injects nothing — empty,
// or seeded with every probability zero — prices the exchange exactly as no
// scenario does. There is one exchange model, so a 0 % fault rate sits next
// to "no fault rate", not across a cliff.
func TestNoOpScenarioEqualsNoScenario(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13)
	for _, fpga := range []bool{false, true} {
		var runs []*Result
		for _, sc := range []*faults.Scenario{nil, {}, {Seed: 1}} {
			res, err := Join(in.R, in.S, Options{Nodes: 4, PartitionsPerNode: 64, Threads: 1,
				UseFPGA: fpga, Format: partition.HistMode, Faults: sc})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res)
		}
		for i, r := range runs[1:] {
			a := runs[0]
			if r.ExchangeTime != a.ExchangeTime || r.BytesExchanged != a.BytesExchanged ||
				r.Retries != a.Retries || r.CorruptPieces != a.CorruptPieces ||
				r.ResentBytes != a.ResentBytes || !reflect.DeepEqual(r.FailedNodes, a.FailedNodes) ||
				r.Degraded != a.Degraded || r.Matches != a.Matches || r.Checksum != a.Checksum ||
				r.JoinTuples != a.JoinTuples || (fpga && r.PartitionTime != a.PartitionTime) {
				t.Errorf("fpga=%v: no-op scenario %d differs from no scenario:\n%+v\n%+v", fpga, i+1, r, a)
			}
		}
	}
}

func TestFaultScenarioReproducible(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13)
	opts := Options{Nodes: 4, PartitionsPerNode: 32, Threads: 2, Faults: acceptanceScenario(7)}
	a, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every simulated (non-wall-clock) field must be byte-for-byte equal.
	if a.Matches != b.Matches || a.Checksum != b.Checksum ||
		a.ExchangeTime != b.ExchangeTime || a.BytesExchanged != b.BytesExchanged ||
		a.Retries != b.Retries || a.CorruptPieces != b.CorruptPieces ||
		a.ResentBytes != b.ResentBytes || a.Degraded != b.Degraded ||
		len(a.FailedNodes) != len(b.FailedNodes) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	// A different seed must change the exchange's fault accounting.
	opts.Faults = acceptanceScenario(8)
	c, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Matches != a.Matches || c.Checksum != a.Checksum {
		t.Error("seed changed the join result")
	}
	if c.Retries == a.Retries && c.ExchangeTime == a.ExchangeTime {
		t.Error("different seed left exchange accounting identical")
	}
}

// Property: across seeds, crash patterns and fault rates, degraded joins
// preserve Matches and Checksum exactly.
func TestPropertyDegradedJoinPreservesResult(t *testing.T) {
	in := testInput(t, 1<<12, 1<<12)
	clean, err := Join(in.R, in.S, Options{Nodes: 8, PartitionsPerNode: 16, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		crashA := int(seed) % 8
		crashB := (int(seed)*3 + 1) % 8
		sc := &faults.Scenario{
			Seed:        seed,
			DropProb:    0.02,
			CorruptProb: 0.01,
			DelayProb:   0.05,
			DelayUS:     25,
			Links:       []faults.Link{{Src: int(seed) % 8, Dst: (int(seed) + 1) % 8, Factor: 0.5}},
			Crashes:     []faults.Crash{{Node: crashA, AfterFraction: float64(seed%3) / 2}},
			Stragglers:  []faults.Straggler{{Node: (crashA + 1) % 8, Factor: 2}},
		}
		if crashB != crashA {
			sc.Crashes = append(sc.Crashes, faults.Crash{Node: crashB, AfterFraction: 0.25})
		}
		res, err := Join(in.R, in.S, Options{Nodes: 8, PartitionsPerNode: 16, Threads: 2, Faults: sc})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Matches != clean.Matches || res.Checksum != clean.Checksum {
			t.Fatalf("seed %d: degraded join %d/%#x, fault-free %d/%#x",
				seed, res.Matches, res.Checksum, clean.Matches, clean.Checksum)
		}
		if !res.Degraded || len(res.FailedNodes) == 0 {
			t.Fatalf("seed %d: crashes not reflected: %+v", seed, res)
		}
	}
}

func TestFPGAFaultScenarioPreservesResult(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13)
	opts := Options{Nodes: 4, PartitionsPerNode: 64, Threads: 2, UseFPGA: true, Format: partition.HistMode}
	clean, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = acceptanceScenario(31)
	faulty, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Matches != clean.Matches || faulty.Checksum != clean.Checksum {
		t.Fatalf("FPGA degraded join %d/%#x, fault-free %d/%#x",
			faulty.Matches, faulty.Checksum, clean.Matches, clean.Checksum)
	}
	if !faulty.Degraded {
		t.Error("not degraded")
	}
}

func TestStragglerSlowsPhases(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13)
	base := Options{Nodes: 2, PartitionsPerNode: 64, Threads: 1}
	clean, err := Join(in.R, in.S, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Faults = &faults.Scenario{Seed: 5, Stragglers: []faults.Straggler{{Node: 0, Factor: 8}}}
	slow, err := Join(in.R, in.S, base)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Matches != clean.Matches || slow.Checksum != clean.Checksum {
		t.Fatal("straggler changed the join result")
	}
	if slow.Degraded {
		t.Error("straggler alone must not degrade the join")
	}
	if slow.ExchangeTime <= clean.ExchangeTime {
		t.Errorf("8× straggler exchange %v not slower than clean %v", slow.ExchangeTime, clean.ExchangeTime)
	}
}

func TestValidationFaultOptions(t *testing.T) {
	in := testInput(t, 64, 64)
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4, Threads: -1}); err == nil {
		t.Error("negative Threads accepted")
	}
	badFabric := &rdma.Fabric{Nodes: 2, LinkGBps: 0, MessageBytes: 1}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4, Fabric: badFabric}); err == nil {
		t.Error("invalid fabric accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4, Fabric: rdma.FDRCluster(4)}); err == nil {
		t.Error("fabric/join node count mismatch accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4, Fabric: rdma.FDRCluster(3)}); err == nil {
		t.Error("non-power-of-two fabric accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4,
		Faults: &faults.Scenario{Crashes: []faults.Crash{{Node: 5}}}}); err == nil {
		t.Error("crash of out-of-range node accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4,
		Faults: &faults.Scenario{Crashes: []faults.Crash{{Node: 0}, {Node: 1}}}}); err == nil {
		t.Error("scenario crashing every node accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4,
		Faults: &faults.Scenario{DropProb: 2}}); err == nil {
		t.Error("invalid fault probabilities accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4,
		Faults: &faults.Scenario{Stragglers: []faults.Straggler{{Node: 3, Factor: 2}}}}); err == nil {
		t.Error("out-of-range straggler accepted")
	}
	if _, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4,
		Faults: &faults.Scenario{Links: []faults.Link{{Src: 0, Dst: 9, Factor: 0.5}}}}); err == nil {
		t.Error("out-of-range degraded link accepted")
	}
}

// TestRetryBudgetExhaustionIsAnError: on a fabric that drops 999 messages in
// 1000 the fixed retry budget runs out, and the join reports that rather than
// losing the piece; at 20 % loss the same budget delivers everything.
func TestRetryBudgetExhaustionIsAnError(t *testing.T) {
	in := testInput(t, 1<<12, 1<<12)
	fab := rdma.FDRCluster(2)
	fab.MessageBytes = 4 << 10 // sixteen messages per flow at this input size
	opts := Options{Nodes: 2, PartitionsPerNode: 4, Threads: 1, Fabric: fab, Faults: &faults.Scenario{Seed: 1, DropProb: 0.999}}
	if _, err := Join(in.R, in.S, opts); err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("99.9%% loss: err = %v, want the retry budget to run out", err)
	}
	opts.Faults = &faults.Scenario{Seed: 1, DropProb: 0.2}
	res, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatalf("20%% loss: %v", err)
	}
	if res.Retries == 0 || res.Degraded {
		t.Errorf("20%% loss: %d retries, degraded %v; want retransmissions and a full cluster", res.Retries, res.Degraded)
	}
}

// panicPartitioner stands in for a backend whose simulator hits an
// invariant violation mid-run.
type panicPartitioner struct{}

func (panicPartitioner) Name() string { return "panic" }
func (panicPartitioner) Partition(*workload.Relation) (*partition.Result, error) {
	panic("fpga: push into full FIFO (back-pressure violated)")
}

func TestSimulatorPanicSurfacesAsError(t *testing.T) {
	orig := makePartitioner
	makePartitioner = func(Options, int) (partition.Partitioner, error) { return panicPartitioner{}, nil }
	defer func() { makePartitioner = orig }()

	in := testInput(t, 256, 256)
	res, err := Join(in.R, in.S, Options{Nodes: 2, PartitionsPerNode: 4, Threads: 1})
	if res != nil || err == nil {
		t.Fatalf("panicking backend returned res=%v err=%v", res, err)
	}
	if !errors.Is(err, ErrSimulatorFault) {
		t.Errorf("error %v is not ErrSimulatorFault", err)
	}
	if !errors.Is(err, partition.ErrSimulatorFault) {
		t.Error("sentinel not shared with package partition")
	}
	if !strings.Contains(err.Error(), "back-pressure violated") {
		t.Errorf("panic message lost: %v", err)
	}
}

func TestDegradedExchangeAccountsRecoveryTraffic(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13)
	opts := Options{Nodes: 4, PartitionsPerNode: 32, Threads: 1,
		Faults: &faults.Scenario{Seed: 3, Crashes: []faults.Crash{{Node: 2, AfterFraction: 0.5}}}}
	res, err := Join(in.R, in.S, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("not degraded")
	}
	// The takeover re-pulls at least the crashed node's owned partitions.
	if res.ResentBytes == 0 {
		t.Error("recovery round moved no bytes")
	}
	// Payload accounting stays the clean-copy volume.
	clean, err := Join(in.R, in.S, Options{Nodes: 4, PartitionsPerNode: 32, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesExchanged != clean.BytesExchanged {
		t.Errorf("payload bytes %d differ from fault-free %d", res.BytesExchanged, clean.BytesExchanged)
	}
}
