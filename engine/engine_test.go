package engine

import (
	"sort"
	"testing"

	"fpgapart/partition"
	"fpgapart/workload"
)

func scanOf(t *testing.T, keys []uint32) *Scan {
	t.Helper()
	rel, err := workload.FromKeys(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScan(rel, 7) // odd batch size exercises the tail
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScanStreamsEverything(t *testing.T) {
	keys := []uint32{5, 1, 9, 9, 3, 7, 2, 8, 4}
	out, err := Collect(scanOf(t, keys))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(keys) {
		t.Fatalf("collected %d tuples, want %d", len(out), len(keys))
	}
	for i, tup := range out {
		if uint32(tup) != keys[i] || uint32(tup>>32) != uint32(i) {
			t.Fatalf("tuple %d = %#x", i, tup)
		}
	}
}

func TestScanValidation(t *testing.T) {
	col, _ := workload.NewRelation(workload.ColumnLayout, 8, 4)
	if _, err := NewScan(col, 0); err == nil {
		t.Error("column relation accepted")
	}
	wide, _ := workload.NewRelation(workload.RowLayout, 16, 4)
	if _, err := NewScan(wide, 0); err == nil {
		t.Error("wide relation accepted")
	}
}

func TestNextBeforeOpenFails(t *testing.T) {
	s := scanOf(t, []uint32{1})
	if _, err := s.Next(); err == nil {
		t.Error("Next before Open succeeded")
	}
}

func TestFilter(t *testing.T) {
	keys := make([]uint32, 100)
	for i := range keys {
		keys[i] = uint32(i)
	}
	f := NewFilter(scanOf(t, keys), func(k, _ uint32) bool { return k%2 == 0 })
	out, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("filtered to %d tuples, want 50", len(out))
	}
	for _, tup := range out {
		if uint32(tup)%2 != 0 {
			t.Fatalf("odd key survived: %d", uint32(tup))
		}
	}
}

func TestFilterRejectAll(t *testing.T) {
	f := NewFilter(scanOf(t, []uint32{1, 2, 3}), func(_, _ uint32) bool { return false })
	out, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d tuples, want 0", len(out))
	}
}

func TestProject(t *testing.T) {
	p := NewProject(scanOf(t, []uint32{1, 2}), func(k, pay uint32) (uint32, uint32) {
		return k * 10, pay + 100
	})
	out, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(out[0]) != 10 || uint32(out[0]>>32) != 100 {
		t.Fatalf("projected tuple 0 = %#x", out[0])
	}
	if uint32(out[1]) != 20 || uint32(out[1]>>32) != 101 {
		t.Fatalf("projected tuple 1 = %#x", out[1])
	}
}

func TestLimit(t *testing.T) {
	keys := make([]uint32, 100)
	l := NewLimit(scanOf(t, keys), 13)
	n, err := Count(l)
	if err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Fatalf("limit produced %d tuples", n)
	}
	// Limit larger than input.
	l2 := NewLimit(scanOf(t, keys[:5]), 100)
	if n, _ := Count(l2); n != 5 {
		t.Fatalf("oversized limit produced %d", n)
	}
}

func TestHashJoinMatchesReference(t *testing.T) {
	rKeys := []uint32{1, 2, 3, 4, 5, 5}
	sKeys := []uint32{5, 5, 2, 9}
	join := NewHashJoin(scanOf(t, rKeys), scanOf(t, sKeys), nil, 16, 2)
	out, err := Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: s=5 matches r slots 4,5 (twice for two probes), s=2 once,
	// s=9 none → 2+2+1 = 5 matches.
	if len(out) != 5 {
		t.Fatalf("join produced %d tuples, want 5", len(out))
	}
	counts := map[uint32]int{}
	for _, tup := range out {
		counts[uint32(tup)]++
	}
	if counts[5] != 4 || counts[2] != 1 {
		t.Fatalf("join key counts: %v", counts)
	}
	if join.ChosenPartitioner == "" {
		t.Error("ChosenPartitioner not recorded")
	}
}

func TestHashJoinCombinePayloads(t *testing.T) {
	join := NewHashJoin(scanOf(t, []uint32{7}), scanOf(t, []uint32{7}), nil, 4, 1)
	join.Combine = func(a, b uint32) uint32 { return a*1000 + b }
	out, err := Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	// Both payloads are index 0 → combined = 0.
	if len(out) != 1 || uint32(out[0]>>32) != 0 || uint32(out[0]) != 7 {
		t.Fatalf("join output: %#x", out)
	}
}

func TestHashJoinWithFPGAPlanner(t *testing.T) {
	rKeys := make([]uint32, 5000)
	sKeys := make([]uint32, 5000)
	for i := range rKeys {
		rKeys[i] = uint32(i + 1)
		sKeys[i] = uint32(i%2500 + 1)
	}
	planner := NewPlanner(PlannerConfig{ForceFPGA: true, Partitions: 64, Threads: 2})
	join := NewHashJoin(scanOf(t, rKeys), scanOf(t, sKeys), planner, 64, 2)
	out, err := Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5000 {
		t.Fatalf("join produced %d tuples, want 5000", len(out))
	}
	if join.ChosenPartitioner != "fpga-HIST/RID" {
		t.Errorf("partitioner = %q, want FPGA", join.ChosenPartitioner)
	}
}

func TestGroupByCount(t *testing.T) {
	keys := []uint32{3, 1, 3, 2, 3, 1}
	g := NewGroupBy(scanOf(t, keys), nil, 8, 2, AggCount)
	out, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]uint32{1: 2, 2: 1, 3: 3}
	if len(out) != len(want) {
		t.Fatalf("%d groups, want %d", len(out), len(want))
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return uint32(out[i]) < uint32(out[j]) }) {
		t.Error("groups not sorted by key")
	}
	for _, tup := range out {
		if uint32(tup>>32) != want[uint32(tup)] {
			t.Fatalf("group %d count %d, want %d", uint32(tup), uint32(tup>>32), want[uint32(tup)])
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	// key 1 with payloads 0,2,4 (indices of its occurrences).
	keys := []uint32{1, 9, 1, 9, 1}
	cases := []struct {
		agg  AggKind
		want uint32 // for key 1
	}{
		{AggSum, 0 + 2 + 4},
		{AggMin, 0},
		{AggMax, 4},
		{AggCount, 3},
	}
	for _, c := range cases {
		g := NewGroupBy(scanOf(t, keys), nil, 8, 1, c.agg)
		out, err := Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, tup := range out {
			if uint32(tup) == 1 {
				found = true
				if uint32(tup>>32) != c.want {
					t.Errorf("agg %d: key 1 = %d, want %d", c.agg, uint32(tup>>32), c.want)
				}
			}
		}
		if !found {
			t.Fatalf("agg %d: key 1 missing", c.agg)
		}
	}
}

func TestPipelineComposition(t *testing.T) {
	// scan → filter(even keys) → join with itself → group-by count.
	keys := make([]uint32, 1000)
	for i := range keys {
		keys[i] = uint32(i % 100)
	}
	build := NewFilter(scanOf(t, keys), func(k, _ uint32) bool { return k%2 == 0 })
	probe := NewFilter(scanOf(t, keys), func(k, _ uint32) bool { return k%2 == 0 })
	join := NewHashJoin(build, probe, nil, 16, 2)
	group := NewGroupBy(join, nil, 16, 2, AggCount)
	out, err := Collect(group)
	if err != nil {
		t.Fatal(err)
	}
	// 50 even keys, each appearing 10 times per side → 100 matches per key.
	if len(out) != 50 {
		t.Fatalf("%d groups, want 50", len(out))
	}
	for _, tup := range out {
		if uint32(tup>>32) != 100 {
			t.Fatalf("group %d count %d, want 100", uint32(tup), uint32(tup>>32))
		}
	}
}

func TestPlannerEstimatesAndDecision(t *testing.T) {
	p := NewPlanner(PlannerConfig{Partitions: 256, Threads: 1, Hash: true, CalibrationTuples: 1 << 14})
	if p.CPUEstimate(1<<20) <= 0 || p.FPGAEstimate(1<<20) <= 0 {
		t.Error("estimates must be positive")
	}
	// Estimates scale with n.
	if p.FPGAEstimate(1<<22) <= p.FPGAEstimate(1<<18) {
		t.Error("FPGA estimate should grow with n")
	}
	forceCPU := NewPlanner(PlannerConfig{ForceCPU: true})
	if forceCPU.ShouldOffload(1 << 30) {
		t.Error("ForceCPU ignored")
	}
	forceFPGA := NewPlanner(PlannerConfig{ForceFPGA: true})
	if !forceFPGA.ShouldOffload(1) {
		t.Error("ForceFPGA ignored")
	}
	// Consistency: decision matches the estimates.
	n := 1 << 20
	if p.ShouldOffload(n) != (p.FPGAEstimate(n) < p.CPUEstimate(n)) {
		t.Error("decision inconsistent with estimates")
	}
}

func TestPlannerPartitionerKinds(t *testing.T) {
	cpuP, err := NewPlanner(PlannerConfig{ForceCPU: true, Partitions: 64}).Partitioner(1000)
	if err != nil {
		t.Fatal(err)
	}
	if cpuP.Name()[:3] != "cpu" {
		t.Errorf("ForceCPU chose %q", cpuP.Name())
	}
	fpgaP, err := NewPlanner(PlannerConfig{ForceFPGA: true, Partitions: 64}).Partitioner(1000)
	if err != nil {
		t.Fatal(err)
	}
	if fpgaP.Name()[:4] != "fpga" {
		t.Errorf("ForceFPGA chose %q", fpgaP.Name())
	}
}

func TestGroupByWithFPGAPlanner(t *testing.T) {
	keys := make([]uint32, 3000)
	for i := range keys {
		keys[i] = uint32(i % 30)
	}
	planner := NewPlanner(PlannerConfig{ForceFPGA: true, Partitions: 32, Format: partition.HistMode})
	g := NewGroupBy(scanOf(t, keys), planner, 32, 2, AggCount)
	out, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 30 {
		t.Fatalf("%d groups, want 30", len(out))
	}
	for _, tup := range out {
		if uint32(tup>>32) != 100 {
			t.Fatalf("group %d count %d, want 100", uint32(tup), uint32(tup>>32))
		}
	}
	if g.ChosenPartitioner != "fpga-HIST/RID" {
		t.Errorf("partitioner = %q", g.ChosenPartitioner)
	}
}

// TestHashJoinCombinePanicReachesTheCaller: a single-threaded join runs its
// build+probe on the caller's goroutine, so a panic in the caller's Combine
// comes back through Open, where the caller can recover it, instead of ending
// the process on a worker goroutine.
func TestHashJoinCombinePanicReachesTheCaller(t *testing.T) {
	keys := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	j := NewHashJoin(scanOf(t, keys), scanOf(t, keys), nil, 4, 1)
	j.Combine = func(a, b uint32) uint32 { panic("combine: caller fault") }
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = j.Open()
	}()
	if recovered != "combine: caller fault" {
		t.Errorf("recovered %v, want Combine's panic", recovered)
	}
}
