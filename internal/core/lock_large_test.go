package core

import (
	"math/rand"
	"testing"

	"fpgapart/workload"
)

// largeLockTuples is the input size of the large cycle-lock cells: eight
// times TestCycleLock's, so that every cell stores at least largeLockLines
// lines before it ends or aborts.
const (
	largeLockTuples = 1 << 17
	largeLockLines  = 4 << 12
)

// largeLockCases are the lock's shapes at a size where a run's store log is
// many thousand lines long: the four 8-byte modes, the wide tuples, the
// decompressor front end, both ablations, a traced run, and a PAD run that
// aborts late, after most of its input has been stored.
func largeLockCases() []lockCase {
	random := func(width int) func(*testing.T) *workload.Relation {
		return func(t *testing.T) *workload.Relation {
			return genRelation(t, workload.Random, width, largeLockTuples, 7)
		}
	}
	columns := func(t *testing.T) *workload.Relation { return random(8)(t).ToColumns() }
	fromKeys := func(keys func() []uint32) func(*testing.T) *workload.Relation {
		return func(t *testing.T) *workload.Relation {
			t.Helper()
			rel, err := workload.FromKeys(keys(), 8)
			if err != nil {
				t.Fatal(err)
			}
			return rel
		}
	}
	// pairs: every lane sees partitions 1,1,2,2,3,3,4,4,… (see lockCases).
	pairs := func() []uint32 {
		keys := make([]uint32, largeLockTuples)
		for i := range keys {
			keys[i] = uint32(i/16%4) + 1
		}
		return keys
	}
	// lateHot: uniform keys, then one key for the last eighth of the input,
	// which overflows its padded partition long after the first lines left.
	lateHot := func() []uint32 {
		keys := make([]uint32, 2*largeLockTuples)
		g := rand.New(rand.NewSource(11))
		for i := range keys {
			keys[i] = g.Uint32() >> 1
			if i >= len(keys)*7/8 {
				keys[i] = 12345
			}
		}
		return keys
	}
	const fan = largeLockTuples / 64
	mode := func(f Format, l Layout) Config {
		return Config{NumPartitions: fan, TupleWidth: 8, Hash: true, Format: f, Layout: l, PadFraction: 1}
	}
	return []lockCase{
		{name: "pad_rid", cfg: mode(PAD, RID), rel: random(8)},
		{name: "hist_rid", cfg: mode(HIST, RID), rel: random(8)},
		{name: "pad_vrid", cfg: mode(PAD, VRID), rel: columns},
		{name: "hist_vrid", cfg: mode(HIST, VRID), rel: columns},
		{name: "hist_rid_w16", cfg: Config{NumPartitions: fan, TupleWidth: 16, Hash: true, Format: HIST}, rel: random(16)},
		{name: "hist_rid_w64", cfg: Config{NumPartitions: fan, TupleWidth: 64, Hash: true, Format: HIST}, rel: random(64)},
		{name: "compressed", cfg: mode(HIST, VRID), keys: func() []uint32 {
			keys := make([]uint32, largeLockTuples)
			for i := range keys {
				keys[i] = uint32(i/5)*2654435761 | 1
			}
			return keys
		}},
		{name: "no_write_combiner", cfg: Config{NumPartitions: fan, TupleWidth: 8, Hash: true, Format: HIST, DisableWriteCombiner: true}, rel: random(8)},
		{name: "no_forwarding", cfg: Config{NumPartitions: fan, TupleWidth: 8, Format: HIST, DisableForwarding: true}, rel: fromKeys(pairs), raw: true},
		{name: "traced_pad_rid", cfg: mode(PAD, RID), rel: random(8), traced: true},
		{name: "pad_overflow_late", cfg: Config{NumPartitions: 256, TupleWidth: 8, Hash: true, Format: PAD, PadFraction: 0.25}, rel: fromKeys(lateHot)},
	}
}

// TestCycleLockLarge pins largeLockCases as TestCycleLock pins its rows —
// Stats, output hash, error, and the traced cell's metrics and trace — in
// testdata/golden/cycle_lock_large.json, which was generated before the
// store log existed. Each cell also runs twice on one circuit (runLockCase),
// so the aborted cell's circuit is reused after its abort.
func TestCycleLockLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("eleven runs of 2^17 tuples and more")
	}
	var recs []lockRecord
	for _, lc := range largeLockCases() {
		rec := runLockCase(t, lc)
		if rec.Stats.LinesWritten < largeLockLines {
			t.Errorf("%s: %d lines stored, want at least %d", lc.name, rec.Stats.LinesWritten, largeLockLines)
		}
		if got, want := rec.Stats.Overflowed, lc.name == "pad_overflow_late"; got != want {
			t.Errorf("%s: overflowed %t, want %t", lc.name, got, want)
		}
		recs = append(recs, rec)
	}
	checkLockGolden(t, "cycle_lock_large.json", recs)
}
