package partserver

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestMemoMatchesExecution: two schedulers sharing a memo — one with
// transient faults, a crash and retries, the other running every job again
// under the complemented tag, as a hedging routing tier does — report what
// they report without it, and the executions that repeat a request on a
// backend take the first one's outcome: the same Counts slice, which after
// both runs still holds what a fresh execution computes, so no lane modified
// the outcome it shared.
func TestMemoMatchesExecution(t *testing.T) {
	seed := seedFromName(t)
	jobs, err := GenerateTrace(seed, 24, TraceOptions{MeanGapUS: 40})
	if err != nil {
		t.Fatal(err)
	}
	joinEvery(t, jobs, 2)
	primaries, hedges := slices.Clone(jobs), slices.Clone(jobs)
	for i := range jobs {
		primaries[i].Tag, hedges[i].Tag = int64(i), ^int64(i)
	}
	request := func(tag int64) int {
		if tag < 0 {
			return int(^tag)
		}
		return int(tag)
	}
	cfgA := Config{FPGAs: 2, Workers: 1, Seed: seed, Faults: faultyScenario(seed)}
	cfgB := Config{FPGAs: 1, Workers: 1, Seed: seed + 1}
	run := func(memo *Memo) (a, b *Report) {
		cfgA.Memo, cfgB.Memo = memo, memo
		a, err := Run(primaries, cfgA)
		if err != nil {
			t.Fatal(err)
		}
		if b, err = Run(hedges, cfgB); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	wantA, wantB := run(nil)
	gotA, gotB := run(NewMemo(len(jobs), request))
	for _, pair := range [][2]*Report{{wantA, gotA}, {wantB, gotB}} {
		var wb, gb bytes.Buffer
		if err := pair[0].WriteJSON(&wb); err != nil {
			t.Fatal(err)
		}
		if err := pair[1].WriteJSON(&gb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Fatalf("memoised report differs\n%s", firstDiff(wb.Bytes(), gb.Bytes()))
		}
		for i, want := range pair[0].Results {
			if !slices.Equal(want.Counts, pair[1].Results[i].Counts) {
				t.Fatalf("job %d: memoised counts %v, executed %v", i, pair[1].Results[i].Counts, want.Counts)
			}
		}
	}
	shared := 0
	for i := range jobs {
		a, b := gotA.Results[i], gotB.Results[i]
		if a.Status == StatusDone && b.Status == StatusDone && a.Placement == b.Placement {
			if &a.Counts[0] != &b.Counts[0] {
				t.Errorf("job %d ran on %v in both schedulers without sharing the outcome", i, a.Placement)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no request ran on the same backend twice; the memo was not exercised")
	}
}

// TestAheadPanicMatchesInline: a CPU job that panics while Memo.Ahead
// computes it fails with the error the slot reports when it runs the job
// itself.
func TestAheadPanicMatchesInline(t *testing.T) {
	jobs, err := GenerateTrace(3, 1, TraceOptions{MinTuples: 64, MaxTuples: 64})
	if err != nil {
		t.Fatal(err)
	}
	joinEvery(t, jobs, 1)
	key := keyOf(&jobs[0])
	s, err := NewScheduler(Config{Workers: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.res[0].part, s.res[0].partKey = brokenPartitioner{}, key
	if _, err := s.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	for _, ok := s.NextEventUS(); ok; _, ok = s.NextEventUS() {
		s.Step()
	}
	inline := s.Result(0)

	// The scheduler's own slot is healthy: the job can only fail through
	// the outcome Ahead computed on the memo's broken one.
	m := NewMemo(1, func(int64) int { return 0 })
	m.ahead.part, m.ahead.partKey = brokenPartitioner{}, key
	m.Ahead(0, &jobs[0])
	rep, err := Run(jobs, Config{Workers: 1, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Results[0]
	if got.Status != StatusFailed || got.Err != inline.Err || !strings.HasPrefix(got.Err, "cpu worker: ") {
		t.Fatalf("job computed ahead ended %v (error %q); run inline %v (error %q)", got.Status, got.Err, inline.Status, inline.Err)
	}
}

// TestMemoComputesEachEntryOnce: while Ahead computes every request's CPU
// outcome in order, dispatches take them in reverse order, so the two meet
// mid-trace in every round. Each entry is computed once: a second dispatch
// returns the first one's Counts slice, where a second computation would
// return a slice of its own.
func TestMemoComputesEachEntryOnce(t *testing.T) {
	jobs, err := GenerateTrace(7, 48, TraceOptions{MinTuples: 64, MaxTuples: 256})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]jobState, len(jobs))
	for i := range jobs {
		jobs[i].Tag = int64(i)
		states[i] = jobState{spec: jobs[i], key: keyOf(&jobs[i])}
	}
	for round := 0; round < 10; round++ {
		m := NewMemo(len(jobs), func(tag int64) int { return int(tag) })
		cpu := &resource{kind: PlacedCPU}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := range jobs {
				m.Ahead(i, &jobs[i])
			}
		}()
		first := make([]execOut, len(jobs))
		for i := len(jobs) - 1; i >= 0; i-- {
			first[i] = m.outcome(cpu, &states[i])
		}
		<-done
		for i := range jobs {
			if !first[i].ok || len(first[i].counts) == 0 {
				t.Fatalf("round %d, request %d: outcome failed (%q)", round, i, first[i].errMsg)
			}
			if again := m.outcome(cpu, &states[i]); &again.counts[0] != &first[i].counts[0] {
				t.Fatalf("round %d, request %d: computed twice", round, i)
			}
		}
	}
}
