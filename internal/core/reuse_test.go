package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
	stats Stats
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
		t.Fatalf("%s: stats differ\n used: %+v\n  new: %+v", what, used.stats, fresh.stats)
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

// poisonOutput overwrites every buffer and field of an output before it is
// recycled, so that a run that reads a recycled buffer or the recycled
// Output before writing it differs from a new circuit's.
func poisonOutput(out *Output) {
	for i := range out.Lines {
		out.Lines[i] = 0xbad0_5eed_bad0_5eed
	}
	for i := range out.slab {
		out.slab[i] = -1
	}
	out.NumPartitions, out.TupleWidth, out.DummyKey, out.DummyKeyed = -1, -1, 0xbad0_5eed, -1
}

// TestCircuitReuseMatchesFreshCircuit runs the sequence on one circuit per
// mode, with a simtrace session attached on every other call, against a new
// circuit per call reporting into a session of its own: outputs, stats and,
// after every call, both sessions' metrics and traces must be identical. A
// second long-lived circuit gets every output back, poisoned, once it is
// compared (Recycle), and must return the same outputs and stats.
func TestCircuitReuseMatchesFreshCircuit(t *testing.T) {
	plat := platform.XeonFPGA()
	for _, m := range reuseModes() {
		t.Run(m.name, func(t *testing.T) {
			used, err := NewCircuit(m.cfg, plat.FPGAClockHz, plat.FPGAAlone)
			if err != nil {
				t.Fatal(err)
			}
			recycling, err := NewCircuit(m.cfg, plat.FPGAClockHz, plat.FPGAAlone)
			if err != nil {
				t.Fatal(err)
			}
			usedSess, freshSess, recyclingSess := simtrace.NewSession(), simtrace.NewSession(), simtrace.NewSession()
			usedSess.SampleWindow, freshSess.SampleWindow = 64, 64
			overflows := 0
			for step, keys := range m.sequence() {
				cfg := m.cfg
				used.cfg.Trace, recycling.cfg.Trace = nil, nil
				if step%2 == 1 {
					used.cfg.Trace, recycling.cfg.Trace, cfg.Trace = usedSess, recyclingSess, freshSess
				}
				fresh, err := NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone)
				if err != nil {
					t.Fatal(err)
				}
				u, f := m.runKeys(t, used, keys), m.runKeys(t, fresh, keys)
				what := fmt.Sprintf("%s step %d", m.name, step)
				requireSameOutcome(t, what, u, f)
				rc := m.runKeys(t, recycling, keys)
				requireSameOutcome(t, what+" (recycling)", rc, f)
				if rc.out != nil {
					poisonOutput(rc.out)
					recycling.Recycle(rc.out)
				}
				if f.stats.Overflowed {
					overflows++
				}
				// Between runs a circuit that never saw Recycle holds nothing
				// sized by the fan-out or the input.
				for _, cb := range used.comb {
					if cb.fill != nil || cb.flags != nil || used.pl.image != nil || used.pl.flags != nil || used.pl.bram != nil || used.pl.bank != nil || used.pl.lines != nil {
						t.Fatalf("%s: the circuit still holds the run's bank or fill-rate BRAM contents, its flags or its output", what)
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
			if !m.cfg.DisableWriteCombiner && recycling.pl.bank == nil {
				t.Error("a circuit that saw Recycle let go of its bank lines")
			}
			if recycling.pl.bram == nil {
				t.Error("a circuit that saw Recycle let go of its fill-rate BRAM slab")
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

// reconfigLink is a clock and a bandwidth curve a circuit is bound to.
type reconfigLink struct {
	clockHz float64
	curve   platform.BandwidthCurve
}

// TestCircuitReconfigureMatchesFresh holds Reconfigure to the same standard:
// one circuit runs a random sequence of configurations — TestCycleLockRandom's
// draws: fan-out 2–8192, hash and radix, PAD and HIST, RID and VRID, widths
// 8–64 (so the lane count changes both ways), PadFraction, FIFO depths, both
// ablations, RLE input, one-key inputs that overflow a PAD partition, runs
// placed on a second goroutine — on the alone, interfered and raw curves and
// two clocks, with every other output recycled, poisoned, into the next
// configuration's run. Every run
// must equal a new circuit's. Every seventh step tries an invalid
// configuration or link first, which must fail and leave the previous
// configuration loaded: the step runs that one again.
func TestCircuitReconfigureMatchesFresh(t *testing.T) {
	xeon, raw := platform.XeonFPGA(), platform.RawFPGA()
	links := []reconfigLink{
		{xeon.FPGAClockHz, xeon.FPGAAlone}, {xeon.FPGAClockHz, xeon.FPGAInterfered},
		{raw.FPGAClockHz, raw.FPGAAlone}, {xeon.FPGAClockHz / 2, xeon.FPGAAlone},
	}
	rng := rand.New(rand.NewSource(51))
	prev, prevLink := randomLockCase(rng, 0), links[0]
	c, err := NewCircuit(prev.cfg, prevLink.clockHz, prevLink.curve)
	if err != nil {
		t.Fatal(err)
	}
	var overflows, narrowed, widened, recycled int
	for step := 0; step < 96; step++ {
		lc, link := randomLockCase(rng, step), links[rng.Intn(len(links))]
		lanes := c.cfg.Lanes()
		if step%7 == 6 {
			bad := []struct {
				cfg  Config
				link reconfigLink
			}{
				{Config{NumPartitions: 3, TupleWidth: 8}, link},
				{Config{NumPartitions: 64, TupleWidth: 16, Layout: VRID}, link},
				{lc.cfg, reconfigLink{0, link.curve}},
				{lc.cfg, reconfigLink{link.clockHz, platform.BandwidthCurve{}}},
			}[step%4]
			loaded := c.Config()
			if err := c.Reconfigure(bad.cfg, bad.link.clockHz, bad.link.curve); err == nil {
				t.Fatalf("step %d: invalid reconfiguration %+v at %v Hz accepted", step, bad.cfg, bad.link.clockHz)
			}
			if c.Config() != loaded {
				t.Fatalf("step %d: a failed reconfiguration changed the loaded configuration", step)
			}
			lc, link = prev, prevLink
		} else if err := c.Reconfigure(lc.cfg, link.clockHz, link.curve); err != nil {
			t.Fatalf("step %d (%s): %v", step, lc.name, err)
		}
		fresh, err := NewCircuit(lc.cfg, link.clockHz, link.curve)
		if err != nil {
			t.Fatal(err)
		}
		run := func(c *Circuit) reuseOutcome {
			var o reuseOutcome
			if lc.keys != nil {
				o.out, o.stats, o.err = c.PartitionCompressed(codec.CompressRLE(lc.keys()))
			} else {
				o.out, o.stats, o.err = c.Partition(lc.rel(t))
			}
			return o
		}
		u, f := run(c), run(fresh)
		requireSameOutcome(t, fmt.Sprintf("step %d (%s)", step, lc.name), u, f)
		if u.out != nil && step%2 == 0 {
			poisonOutput(u.out)
			c.Recycle(u.out)
			recycled++
		}
		if f.stats.Overflowed {
			overflows++
		}
		if l := c.cfg.Lanes(); l < lanes {
			narrowed++
		} else if l > lanes {
			widened++
		}
		prev, prevLink = lc, link
	}
	if async := c.pl.full != nil; overflows == 0 || narrowed == 0 || widened == 0 || recycled == 0 || !async {
		t.Errorf("the sequence lost a case: %d PAD overflows, %d narrowing and %d widening reconfigurations, %d recycled outputs, placed on a second goroutine %t",
			overflows, narrowed, widened, recycled, async)
	}
}

// TestReconfigureAllocations pins what loading a configuration costs:
// nothing while the circuit's slabs fit it and the link stays — eight lanes
// to one and back, PAD to HIST, RID to VRID, fan-out 64 to 8192 — and one
// object, the QPI end-point, per change of the curve.
func TestReconfigureAllocations(t *testing.T) {
	plat := platform.XeonFPGA()
	configs := []Config{
		{NumPartitions: 64, TupleWidth: 8, Hash: true, Format: PAD, Layout: RID},
		{NumPartitions: 8192, TupleWidth: 64, Format: HIST, Layout: RID},
		{NumPartitions: 16, TupleWidth: 8, Hash: true, Format: HIST, Layout: VRID, DisableForwarding: true},
	}
	c, err := NewCircuit(configs[0], plat.FPGAClockHz, plat.FPGAAlone)
	if err != nil {
		t.Fatal(err)
	}
	load := func(cfg Config, curve platform.BandwidthCurve) {
		if err := c.Reconfigure(cfg, plat.FPGAClockHz, curve); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := range configs {
			load(configs[(i+1)%len(configs)], plat.FPGAAlone)
		}
	}); n != 0 {
		t.Errorf("reconfigurations that fit make %.0f heap objects, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		load(configs[0], plat.FPGAInterfered)
		load(configs[0], plat.FPGAAlone)
	}); n != 2 {
		t.Errorf("two changes of the curve make %.0f heap objects, want 2", n)
	}
}
