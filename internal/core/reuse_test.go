package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fpgapart/codec"
	"fpgapart/internal/simtrace"
	"fpgapart/platform"
	"fpgapart/workload"
)

// A Circuit is built once and reset by every run. These tests hold the reset
// to the only standard that matters: whatever ran before — a large relation,
// nothing at all, a PAD pass aborted with tuples in every FIFO — a run on a
// used circuit is byte-identical to the same run on a new one.

const (
	reuseFanOut = 64
	reuseTuples = 1 << 12
	// reuseHotKey is the one key of the skewed inputs; the same in all of
	// them, so a hazard register left over from an aborted run names the
	// partition the next run's first tuples go to.
	reuseHotKey = 0x5eed
)

// reuseMode is one long-lived circuit of the differential sequence.
type reuseMode struct {
	name       string
	cfg        Config
	compressed bool // feed the keys RLE-compressed through PartitionCompressed
}

func reuseModes() []reuseMode {
	mode := func(f Format, l Layout, width int) Config {
		return Config{NumPartitions: reuseFanOut, TupleWidth: width, Hash: true, Format: f, Layout: l, PadFraction: 1}
	}
	noFwd, noComb, padNoComb := mode(HIST, RID, 8), mode(HIST, RID, 8), mode(PAD, RID, 8)
	noFwd.DisableForwarding = true
	noComb.DisableWriteCombiner = true
	padNoComb.DisableWriteCombiner = true
	return []reuseMode{
		{name: "pad_rid", cfg: mode(PAD, RID, 8)},
		{name: "hist_rid", cfg: mode(HIST, RID, 8)},
		{name: "pad_vrid", cfg: mode(PAD, VRID, 8)},
		{name: "hist_vrid", cfg: mode(HIST, VRID, 8)},
		{name: "pad_rid_w64", cfg: mode(PAD, RID, 64)},
		{name: "hist_rid_w64", cfg: mode(HIST, RID, 64)},
		{name: "no_forwarding", cfg: noFwd},
		{name: "no_write_combiner", cfg: noComb},
		{name: "pad_no_write_combiner", cfg: padNoComb},
		{name: "pad_compressed", cfg: mode(PAD, VRID, 8), compressed: true},
		{name: "hist_compressed", cfg: mode(HIST, VRID, 8), compressed: true},
	}
}

// sequence is the key columns a circuit sees, in order: a uniform
// relation; nothing; one key only, which overflows a PAD partition as early
// as a run can; uniform then one key, which overflows it mid-pass with the
// pipeline full; one key again, the few tuples that fit a PAD partition,
// straight after the abort; and the first relation again.
func (m reuseMode) sequence() [][]uint32 {
	fits := 48 // one line and its seven lines of flush slack, short of full
	if m.cfg.TupleWidth == 64 || m.cfg.DisableWriteCombiner {
		fits = 2 // no slack lines: the padded size is two tuples
	}
	uniform := make([]uint32, reuseTuples)
	for i := range uniform {
		uniform[i] = uint32(i)*2654435761 | 1
	}
	hot := func(n int) []uint32 {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = reuseHotKey
		}
		return keys
	}
	mid := append(append([]uint32(nil), uniform[:3*reuseTuples/4]...), hot(reuseTuples/4)...)
	return [][]uint32{uniform, nil, hot(reuseTuples), mid, hot(fits), uniform}
}

// reuseOutcome is everything one run produces.
type reuseOutcome struct {
	out   *Output
	stats *Stats
	err   error
}

// runKeys feeds keys to c in the form its mode reads.
func (m reuseMode) runKeys(t *testing.T, c *Circuit, keys []uint32) reuseOutcome {
	t.Helper()
	var o reuseOutcome
	if m.compressed {
		o.out, o.stats, o.err = c.PartitionCompressed(codec.CompressRLE(keys))
		return o
	}
	rel, err := workload.FromKeys(keys, m.cfg.TupleWidth)
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.Layout == VRID {
		rel = rel.ToColumns()
	}
	o.out, o.stats, o.err = c.Partition(rel)
	return o
}

// requireSameOutcome fails unless used, from a circuit that ran before, is
// what fresh, from a new circuit, is: same error, same Stats, same Output
// word for word.
func requireSameOutcome(t *testing.T, what string, used, fresh reuseOutcome) {
	t.Helper()
	if (used.err == nil) != (fresh.err == nil) || (used.err != nil && used.err.Error() != fresh.err.Error()) {
		t.Fatalf("%s: used circuit returned %v, new circuit %v", what, used.err, fresh.err)
	}
	if fresh.err != nil && !errors.Is(fresh.err, ErrPartitionOverflow) {
		t.Fatalf("%s: %v", what, fresh.err)
	}
	if !reflect.DeepEqual(used.stats, fresh.stats) {
		t.Fatalf("%s: stats differ\n used: %+v\n  new: %+v", what, *used.stats, *fresh.stats)
	}
	if !reflect.DeepEqual(used.out, fresh.out) {
		t.Fatalf("%s: outputs differ (used %s, new %s)", what, hashOutput(used.out), hashOutput(fresh.out))
	}
}

func sessionBytes(t *testing.T, sess *simtrace.Session) (metrics, trace []byte) {
	t.Helper()
	var mb, tb bytes.Buffer
	if err := sess.Metrics.Snapshot().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := sess.Tracer.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	return mb.Bytes(), tb.Bytes()
}

// TestCircuitReuseMatchesFreshCircuit runs the sequence on one circuit per
// mode, with a simtrace session attached on every other call, against a new
// circuit per call reporting into a session of its own: outputs, stats and,
// after every call, both sessions' metrics and traces must be identical.
func TestCircuitReuseMatchesFreshCircuit(t *testing.T) {
	plat := platform.XeonFPGA()
	for _, m := range reuseModes() {
		t.Run(m.name, func(t *testing.T) {
			used, err := NewCircuit(m.cfg, plat.FPGAClockHz, plat.FPGAAlone)
			if err != nil {
				t.Fatal(err)
			}
			usedSess, freshSess := simtrace.NewSession(), simtrace.NewSession()
			usedSess.SampleWindow, freshSess.SampleWindow = 64, 64
			overflows := 0
			for step, keys := range m.sequence() {
				cfg := m.cfg
				used.cfg.Trace = nil
				if step%2 == 1 {
					used.cfg.Trace, cfg.Trace = usedSess, freshSess
				}
				fresh, err := NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone)
				if err != nil {
					t.Fatal(err)
				}
				u, f := m.runKeys(t, used, keys), m.runKeys(t, fresh, keys)
				what := fmt.Sprintf("%s step %d", m.name, step)
				requireSameOutcome(t, what, u, f)
				if f.stats.Overflowed {
					overflows++
				}
				// Between runs the circuit holds nothing sized by the fan-out
				// or the input.
				for _, cb := range used.comb {
					if cb.fill != nil || cb.flags != nil || used.pl.image != nil || used.pl.flags != nil || used.pl.bank != nil || used.pl.lines != nil {
						t.Fatalf("%s: the circuit still holds the run's bank or fill-rate BRAM contents, its flags or its output", what)
					}
				}
				// The page table maps this run's region and nothing of an
				// earlier, larger one.
				for page := int64(0); page < 4; page++ {
					_, uerr := used.ptable.Translate(page << 22)
					_, ferr := fresh.ptable.Translate(page << 22)
					if (uerr == nil) != (ferr == nil) {
						t.Fatalf("%s: page %d translates with %v, on a new circuit with %v", what, page, uerr, ferr)
					}
				}
				um, ut := sessionBytes(t, usedSess)
				fm, ft := sessionBytes(t, freshSess)
				if !bytes.Equal(um, fm) {
					t.Fatalf("%s: metrics differ\n used: %s\n  new: %s", what, um, fm)
				}
				if !bytes.Equal(ut, ft) {
					t.Fatalf("%s: traces differ", what)
				}
			}
			if want := map[Format]int{PAD: 2, HIST: 0}[m.cfg.Format]; overflows != want {
				t.Errorf("%d runs overflowed, want %d: the sequence lost its aborted passes", overflows, want)
			}
		})
	}
}

// TestCombinerResetMatchesNewCombiner holds the combiner's reset to the same
// standard on its own. The sequence above cannot observe the hazard
// registers or the stall state: the hash pipeline puts five bubbles in front
// of a run's first tuple, and two clear them. Here nothing does — a combiner
// left mid-hazard, mid-stall and mid-flush is reset and then stepped beside a
// new one from the first cycle on.
func TestCombinerResetMatchesNewCombiner(t *testing.T) {
	for _, noForwarding := range []bool{false, true} {
		cfg := Config{NumPartitions: 4, TupleWidth: 8, Format: PAD, Layout: RID, DisableForwarding: noForwarding}.WithDefaults()
		hot := func(cb *combiner, n int) {
			for i := 0; i < n; i++ {
				push(cb, 2)
			}
		}
		used, st := newTestCombiner(cfg, 8), &Stats{}
		hot(used, 12)
		// Past the first emitted line, and ending right after an accepted
		// tuple or, without forwarding (four cycles a tuple), inside a stall.
		n := map[bool]int64{false: 10, true: 35}[noForwarding]
		for now := int64(0); now < n; now++ {
			used.step(&cfg, now)
		}
		flushStepDone(used, st)
		if used.lastAt[0] != n-1 && used.stall == 0 || used.flushAddr == 0 || used.fill[2] == 0 || used.out.HighWater == 0 {
			t.Fatalf("combiner not dirty: %+v", used)
		}
		resetTestCombiner(used, cfg)

		fresh := newTestCombiner(cfg, 8)
		stU, stF := &Stats{}, &Stats{}
		hot(used, 11)
		hot(fresh, 11)
		for cycle := 0; cycle < 40; cycle++ {
			stepAt(used, stU, &cfg, int64(cycle))
			stepAt(fresh, stF, &cfg, int64(cycle))
			if *stU != *stF || used.queued != fresh.queued || used.out.Len() != fresh.out.Len() {
				t.Fatalf("forwarding off=%v, cycle %d: reset combiner diverges from a new one\n used: %+v\n  new: %+v", noForwarding, cycle, *stU, *stF)
			}
		}
		for doneU, doneF := false, false; !doneU || !doneF; {
			doneU, doneF = flushStepDone(used, stU), flushStepDone(fresh, stF)
			if doneU != doneF || *stU != *stF {
				t.Fatalf("forwarding off=%v: flush of the reset combiner diverges from a new one", noForwarding)
			}
		}
		if used.out.Len() != fresh.out.Len() || used.out.HighWater != fresh.out.HighWater {
			t.Fatalf("forwarding off=%v: output FIFO %d lines (high water %d), new combiner %d (%d)",
				noForwarding, used.out.Len(), used.out.HighWater, fresh.out.Len(), fresh.out.HighWater)
		}
		for !fresh.out.Empty() {
			if *used.out.Front() != *fresh.out.Front() {
				t.Fatalf("forwarding off=%v: emitted lines differ", noForwarding)
			}
			used.out.Drop()
			fresh.out.Drop()
		}
	}
}
