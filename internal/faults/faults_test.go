package faults

import (
	"fmt"
	"math"
	"testing"
)

func TestScenarioValidate(t *testing.T) {
	// NaN passes a range check written as two rejecting comparisons, +Inf an
	// open-ended one: a NaN or +Inf straggle factor made the straggler the
	// fastest instance, its durations clamped to 1 µs.
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Scenario{
		{DropProb: nan},
		{CorruptProb: nan},
		{DelayProb: nan},
		{DelayUS: nan},
		{DelayUS: inf},
		{Links: []Link{{Src: 0, Dst: 1, Factor: nan}}},
		{Crashes: []Crash{{Node: 0, AfterFraction: nan}}},
		{Stragglers: []Straggler{{Node: 0, Factor: nan}}},
		{Stragglers: []Straggler{{Node: 0, Factor: inf}}},
		// Finite but large enough that a stretched duration overflows int64.
		{Stragglers: []Straggler{{Node: 0, Factor: 1e300}}},
		{Stragglers: []Straggler{{Node: 0, Factor: 1e7}}},
		{DropProb: -0.1},
		{DropProb: 1},
		{CorruptProb: 1.5},
		{DelayProb: -1},
		{DropProb: 0.6, CorruptProb: 0.5},
		{DelayUS: -3},
		{Links: []Link{{Src: 0, Dst: 1, Factor: 0}}},
		{Links: []Link{{Src: 0, Dst: 1, Factor: 1.5}}},
		{Links: []Link{{Src: 1, Dst: 1, Factor: 0.5}}},
		{Links: []Link{{Src: -1, Dst: 1, Factor: 0.5}}},
		{Crashes: []Crash{{Node: -1}}},
		{Crashes: []Crash{{Node: 0, AfterFraction: 2}}},
		{Crashes: []Crash{{Node: 1}, {Node: 1}}},
		{Stragglers: []Straggler{{Node: 0, Factor: 0.5}}},
		{Stragglers: []Straggler{{Node: -2, Factor: 2}}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("scenario %d validated: %+v", i, s)
		}
	}
	good := Scenario{
		Seed: 1, DropProb: 0.1, CorruptProb: 0.05, DelayProb: 0.2, DelayUS: 50,
		Links:      []Link{{Src: 0, Dst: 3, Factor: 0.25}},
		Crashes:    []Crash{{Node: 2, AfterFraction: 0.5}},
		Stragglers: []Straggler{{Node: 1, Factor: 2}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good scenario rejected: %v", err)
	}
	for _, f := range []float64{1, 8, maxStraggleFactor} {
		s := Scenario{Stragglers: []Straggler{{Node: 0, Factor: f}}}
		if err := s.Validate(); err != nil {
			t.Errorf("straggle factor %v rejected: %v", f, err)
		}
	}
}

func TestFateDeterministicAndOrderIndependent(t *testing.T) {
	inj, err := New(Scenario{Seed: 42, DropProb: 0.3, CorruptProb: 0.1, DelayProb: 0.2, DelayUS: 10})
	if err != nil {
		t.Fatal(err)
	}
	ids := []MsgID{
		{Src: 0, Dst: 1, Msg: 3},
		{Src: 1, Dst: 0, Msg: 3},
		{Phase: 1, Src: 0, Dst: 1, Msg: 3},
		{Src: 0, Dst: 1, Msg: 3, Attempt: 1},
		{Src: 0, Dst: 1, Msg: 3, Round: 2},
	}
	// Record in one order, replay in reverse: every answer must be a pure
	// function of the MsgID.
	type draw struct {
		fate  Fate
		delay float64
		jit   float64
	}
	first := make([]draw, len(ids))
	for i, id := range ids {
		f, d := inj.MessageFate(id)
		first[i] = draw{f, d, inj.Jitter(id)}
	}
	for i := len(ids) - 1; i >= 0; i-- {
		f, d := inj.MessageFate(ids[i])
		if f != first[i].fate || d != first[i].delay || inj.Jitter(ids[i]) != first[i].jit {
			t.Errorf("id %d: replay disagrees", i)
		}
	}
}

func TestFateFrequenciesMatchProbabilities(t *testing.T) {
	const n = 200000
	inj, err := New(Scenario{Seed: 7, DropProb: 0.1, CorruptProb: 0.05, DelayProb: 0.2, DelayUS: 100})
	if err != nil {
		t.Fatal(err)
	}
	var drops, corrupts, delays int
	for i := 0; i < n; i++ {
		f, d := inj.MessageFate(MsgID{Src: 0, Dst: 1, Msg: i})
		switch f {
		case Drop:
			drops++
		case Corrupt:
			corrupts++
		}
		if d > 0 {
			delays++
			if d < 50 || d >= 150 {
				t.Fatalf("delay %v µs outside [50, 150)", d)
			}
		}
	}
	check := func(name string, got int, p float64) {
		frac := float64(got) / n
		if math.Abs(frac-p) > 0.01 {
			t.Errorf("%s frequency %.4f, want ≈ %.2f", name, frac, p)
		}
	}
	check("drop", drops, 0.1)
	check("corrupt", corrupts, 0.05)
	// Delay is drawn for non-dropped messages only.
	check("delay", delays, 0.2*0.9)
}

func TestSeedsDecorrelate(t *testing.T) {
	a, _ := New(Scenario{Seed: 1, DropProb: 0.5})
	b, _ := New(Scenario{Seed: 2, DropProb: 0.5})
	same := 0
	const n = 10000
	for i := 0; i < n; i++ {
		fa, _ := a.MessageFate(MsgID{Msg: i})
		fb, _ := b.MessageFate(MsgID{Msg: i})
		if fa == fb {
			same++
		}
	}
	// Independent 50/50 draws agree about half the time; identical streams
	// would agree always.
	if same > n*6/10 || same < n*4/10 {
		t.Errorf("different seeds agree on %d/%d fates", same, n)
	}
}

func TestJitterUniform(t *testing.T) {
	inj, _ := New(Scenario{Seed: 3})
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		j := inj.Jitter(MsgID{Msg: i})
		if j < 0 || j >= 1 {
			t.Fatalf("jitter %v outside [0, 1)", j)
		}
		sum += j
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("jitter mean %v, want ≈ 0.5", mean)
	}
}

func TestLookups(t *testing.T) {
	inj, err := New(Scenario{
		Seed:       1,
		Links:      []Link{{Src: 2, Dst: 0, Factor: 0.5}},
		Crashes:    []Crash{{Node: 3, AfterFraction: 0.25}, {Node: 1, AfterFraction: 0}},
		Stragglers: []Straggler{{Node: 0, Factor: 2.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := inj.LinkFactor(2, 0); f != 0.5 {
		t.Errorf("degraded link factor %v", f)
	}
	if f := inj.LinkFactor(0, 2); f != 1 {
		t.Errorf("reverse direction degraded too: %v", f)
	}
	if at, ok := inj.CrashPoint(3, 10); !ok || at != 2 {
		t.Errorf("crash point of node 3 over 10 units: %v, %v", at, ok)
	}
	if _, ok := inj.CrashPoint(0, 10); ok {
		t.Error("healthy node reported crashed")
	}
	if got := inj.CrashedNodes(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("crashed nodes %v, want [1 3]", got)
	}
	if f := inj.StraggleFactor(0); f != 2.5 {
		t.Errorf("straggle factor %v", f)
	}
	if f := inj.StraggleFactor(1); f != 1 {
		t.Errorf("healthy straggle factor %v", f)
	}
}

func TestZeroScenarioAlwaysDelivers(t *testing.T) {
	inj, err := New(Scenario{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f, d := inj.MessageFate(MsgID{Src: i % 4, Dst: (i + 1) % 4, Msg: i})
		if f != Deliver || d != 0 {
			t.Fatalf("empty scenario produced fate %v delay %v", f, d)
		}
	}
}

func TestParseNodeFactor(t *testing.T) {
	for _, c := range []struct {
		in        string
		straggler *Straggler
		link      *Link
	}{
		{in: "1:8", straggler: &Straggler{Node: 1, Factor: 8}},
		{in: "3:2.5", straggler: &Straggler{Node: 3, Factor: 2.5}},
		{in: "0:2:0.25", link: &Link{Src: 0, Dst: 2, Factor: 0.25}},
		{in: "-1:2", straggler: &Straggler{Node: -1, Factor: 2}}, // Validate's to reject
		{in: "1:8x"}, // trailing input after the factor
		{in: "1:8:3", link: &Link{Src: 1, Dst: 8, Factor: 3}}, // one field too many for a straggler
		{in: "3.9:2.5"},    // a node id is an integer
		{in: "0.5:2:0.25"}, // so is a link's source
		{in: "0:2.0:0.25"}, // and its destination
		{in: ""},
		{in: ":"},
		{in: "1:"},
		{in: ":8"},
		{in: " 1:8"},
		{in: "1:8 "},
		{in: "a:2"},
		{in: "1:NaN"},
		{in: "1:Inf"},
		{in: "1:1e999"},
		{in: "0:1:2:0.5"},
	} {
		st, err := ParseStraggler(c.in)
		if c.straggler == nil && err == nil {
			t.Errorf("ParseStraggler(%q) = %+v, want an error", c.in, st)
		}
		if c.straggler != nil && (err != nil || st != *c.straggler) {
			t.Errorf("ParseStraggler(%q) = %+v, %v; want %+v", c.in, st, err, *c.straggler)
		}
		l, err := ParseLink(c.in)
		if c.link == nil && err == nil {
			t.Errorf("ParseLink(%q) = %+v, want an error", c.in, l)
		}
		if c.link != nil && (err != nil || l != *c.link) {
			t.Errorf("ParseLink(%q) = %+v, %v; want %+v", c.in, l, err, *c.link)
		}
	}
}

// FuzzParseNodeFactor holds the straggler and link parsers to their
// contract on arbitrary input: an error, or a value that renders back to a
// spec parsing to the same value; never a panic.
func FuzzParseNodeFactor(f *testing.F) {
	for _, s := range []string{"1:8", "3:2.5", "0:2:0.25", "1:8x", "3.9:2.5", "-0:1e-300", "+7:0x1p3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if st, err := ParseStraggler(s); err == nil {
			again, err := ParseStraggler(fmt.Sprintf("%d:%v", st.Node, st.Factor))
			if err != nil || again != st {
				t.Fatalf("straggler %q → %+v re-renders to %+v, %v", s, st, again, err)
			}
		}
		if l, err := ParseLink(s); err == nil {
			again, err := ParseLink(fmt.Sprintf("%d:%d:%v", l.Src, l.Dst, l.Factor))
			if err != nil || again != l {
				t.Fatalf("link %q → %+v re-renders to %+v, %v", s, l, again, err)
			}
		}
	})
}
