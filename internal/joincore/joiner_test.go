package joincore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fpgapart/internal/membudget"
)

// TestJoinerReuseAllocatesNothing guards what a long-lived joiner's second
// and later single-threaded calls cost: nothing on the heap, with no budget,
// with a budget everything fits (the decision log is kept), and with one
// under which partitions spill, recurse to the depth cap and broadcast (the
// repartitioning passes write into the buffers the previous call's passes
// left, one set per depth, and a spilled side stored in several runs is
// copied into the worker's buffer). The partitions are stored in four runs
// each, with dummy slots, as the circuit writes them.
func TestJoinerReuseAllocatesNothing(t *testing.T) {
	rKeys, sKeys := randKeys(1<<12, 70), randKeys(1<<12, 71)
	r, s := partitionKeys(rKeys, 16, 5), partitionKeys(sKeys, 16, 7)
	r.pieces, s.pieces = 4, 4
	for _, tc := range []struct {
		name   string
		budget int64
		spills bool
	}{
		{"unlimited", 0, false},
		{"limited, in memory", buildBytes(r) + buildBytes(s), false},
		{"limited, spilling", BuildTupleBytes, true},
	} {
		var j Joiner
		cfg := BudgetConfig{Budget: membudget.New(tc.budget), Spill: &membudget.SpillStore{}, Threads: 1}
		var stats BudgetStats
		join := func() {
			var err error
			if _, stats, err = j.Join(r, s, cfg); err != nil {
				t.Fatal(err)
			}
		}
		join()
		if n := testing.AllocsPerRun(5, join); n != 0 {
			t.Errorf("%s: %.0f heap objects per reused join, want 0", tc.name, n)
		}
		if spilled := stats.SpilledPartitions > 0 && stats.Recursions > 0 && stats.Broadcasts > 0; spilled != tc.spills {
			t.Errorf("%s: spilled, recursed and broadcast %t, want %t: %+v", tc.name, spilled, tc.spills, stats)
		}
		if tc.budget > 0 && len(stats.Decisions) < r.NumPartitions() {
			t.Errorf("%s: %d decisions, want one per partition at least", tc.name, len(stats.Decisions))
		}
	}
}

// TestJoinerReuseMatchesFresh runs one joiner over a random sequence of
// inputs (fan-outs, strides, runs per partition, dummy slots, sizes and
// skew), budgets (unlimited, everything fits, spilling, one tuple) and
// thread counts, with a fan-out mismatch and a join whose match callback
// panics in between. After every call its result and its stats — every
// decision — must equal a fresh BudgetedBuildProbe's: nothing of one call
// may leak into the next.
func TestJoinerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	var j Joiner
	for step := 0; step < 60; step++ {
		fanOut := []int{1, 4, 16, 64}[rng.Intn(4)]
		n := 1 + rng.Intn(3000)
		rKeys, sKeys := randKeys(n, rng.Int63()), randKeys(1+rng.Intn(3000), rng.Int63())
		if rng.Intn(4) == 0 { // a heavy hitter
			for i := range rKeys[:len(rKeys)/2] {
				rKeys[i] = 7
			}
		}
		r, s := partitionKeys(rKeys, fanOut, rng.Intn(4)), partitionKeys(sKeys, fanOut, rng.Intn(4))
		r.pieces, s.pieces = rng.Intn(4), rng.Intn(4)
		budget := []int64{0, buildBytes(r) + buildBytes(s), buildBytes(r) / int64(4*fanOut), BuildTupleBytes}[rng.Intn(4)]
		cfg := func() BudgetConfig {
			return BudgetConfig{Budget: membudget.New(budget), Spill: &membudget.SpillStore{}, Threads: 1 + rng.Intn(3)}
		}
		what := fmt.Sprintf("step %d (fan-out %d, budget %d)", step, fanOut, budget)

		switch rng.Intn(8) {
		case 0:
			if _, _, err := j.Join(r, partitionKeys(sKeys, 2*fanOut, 0), cfg()); err == nil {
				t.Fatalf("%s: fan-out mismatch accepted", what)
			}
		case 1:
			func() {
				defer func() { recover() }() // the call ends wherever the first match is
				c := cfg()
				c.Threads, c.Emit = 1, func(int, uint32, uint32, uint32) { panic("emit") }
				j.Join(r, s, c)
			}()
		}

		c := cfg()
		got, gotStats, err := j.Join(r, s, c)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := BudgetedBuildProbe(r, s, BudgetConfig{Budget: c.Budget, Spill: &membudget.SpillStore{}, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Matches != want.Matches || got.Checksum != want.Checksum {
			t.Fatalf("%s: reused joiner %d/%#x, fresh %d/%#x", what, got.Matches, got.Checksum, want.Matches, want.Checksum)
		}
		if !slices.Equal(gotStats.Decisions, wantStats.Decisions) {
			t.Fatalf("%s: decisions differ\n reused: %+v\n  fresh: %+v", what, gotStats.Decisions, wantStats.Decisions)
		}
		gotStats.Decisions, wantStats.Decisions = nil, nil
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%s: stats differ\n reused: %+v\n  fresh: %+v", what, gotStats, wantStats)
		}
	}
}

// TestJoinerRejectsConcurrentCalls: a Joiner's tables and log are one
// join's, so a call entered while another is under way — a joiner shared
// between goroutines — panics instead of corrupting both.
func TestJoinerRejectsConcurrentCalls(t *testing.T) {
	r, s := partitionKeys(randKeys(256, 90), 4, 0), partitionKeys(randKeys(256, 91), 4, 0)
	var j Joiner
	inside, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		first := true
		_, _, err := j.Join(r, s, BudgetConfig{Threads: 1, Emit: func(int, uint32, uint32, uint32) {
			if first {
				first = false
				close(inside)
				<-release
			}
		}})
		done <- err
	}()
	<-inside
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Join entered while the first was under way")
			}
		}()
		j.Join(r, s, BudgetConfig{Threads: 1})
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Join(r, s, BudgetConfig{Threads: 1}); err != nil {
		t.Fatalf("the joiner is not free after the first call returned: %v", err)
	}
}
