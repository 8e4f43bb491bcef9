// Package faults is a deterministic, seedable fault injector for the
// distributed-join path. It models the failures a real rack suffers —
// dropped, corrupted and delayed messages, degraded links, crashed nodes,
// stragglers — while keeping every run byte-for-byte reproducible: each
// decision is a pure function of (seed, phase, link, message, round,
// attempt), derived by hashing rather than by consuming a sequential random
// stream, so outcomes do not depend on iteration order.
//
// The injector plugs into rdma.Fabric's exchange and into distjoin.Join;
// tests replay exact failure scenarios by fixing the seed.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"fpgapart/internal/hashutil"
)

// Link degrades the directed link Src→Dst to Factor of its nominal
// bandwidth (0 < Factor ≤ 1).
type Link struct {
	Src, Dst int
	Factor   float64
}

// Crash fail-stops a node part-way through the exchange: the node stops
// sending and receiving after AfterFraction of its exchange messages
// (0 = crashed from the start, 0.5 = mid-exchange). Its memory remains
// remotely readable — the one-sided RDMA fault model of Barthels et al. —
// so survivors can re-pull its partition pieces.
type Crash struct {
	Node          int
	AfterFraction float64
}

// Straggler slows every port operation of a node by Factor (1 ≤ Factor ≤
// maxStraggleFactor).
type Straggler struct {
	Node   int
	Factor float64
}

// ParseLink parses the command-line form of a degraded link,
// <src>:<dst>:<factor>, e.g. "0:2:0.25".
func ParseLink(s string) (Link, error) {
	nodes, factor, err := parseNodeFactor(s, 2, "<src>:<dst>:<factor>")
	if err != nil {
		return Link{}, err
	}
	return Link{Src: nodes[0], Dst: nodes[1], Factor: factor}, nil
}

// ParseStraggler parses the command-line form of a straggler,
// <node>:<factor>, e.g. "3:2.5".
func ParseStraggler(s string) (Straggler, error) {
	nodes, factor, err := parseNodeFactor(s, 1, "<node>:<factor>")
	if err != nil {
		return Straggler{}, err
	}
	return Straggler{Node: nodes[0], Factor: factor}, nil
}

// parseNodeFactor is the one parser behind ParseLink and ParseStraggler: s
// must be exactly n integer node ids and a finite factor, colon-separated.
// Ranges are Validate's to check.
func parseNodeFactor(s string, n int, form string) ([]int, float64, error) {
	fields := strings.Split(s, ":")
	if len(fields) != n+1 {
		return nil, 0, fmt.Errorf("faults: %q: want %s", s, form)
	}
	nodes := make([]int, n)
	for i := range nodes {
		v, err := strconv.Atoi(fields[i])
		if err != nil {
			return nil, 0, fmt.Errorf("faults: %q: want %s: node %q is not an integer", s, form, fields[i])
		}
		nodes[i] = v
	}
	factor, err := strconv.ParseFloat(fields[n], 64)
	if err != nil || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, 0, fmt.Errorf("faults: %q: want %s: factor %q is not a finite number", s, form, fields[n])
	}
	return nodes, factor, nil
}

// maxStraggleFactor bounds a straggle factor so that every duration it
// stretches stays an int64. The longest durations it multiplies are a
// distjoin node's phases, in nanoseconds: a phase of an hour is 3.6e12 ns,
// and 3.6e12 × 1e6 = 3.6e18 stays below MaxInt64 ≈ 9.2e18 (partserver's
// charges are microseconds, a thousand times further from it). A node a
// million times slower than its peers has crashed, which Crashes models.
const maxStraggleFactor = 1e6

// Scenario is a complete, declarative failure scenario.
type Scenario struct {
	// Seed makes the scenario reproducible; equal seeds give identical runs.
	Seed uint64
	// DropProb is the per-message probability that a message is lost in
	// flight (the sender times out and retransmits).
	DropProb float64
	// CorruptProb is the per-message probability that a message arrives
	// bit-flipped. Corruption is caught by the receiver's piece checksum,
	// which re-requests the corrupt message.
	CorruptProb float64
	// DelayProb and DelayUS add an extra delay of roughly DelayUS µs
	// (uniform in [0.5, 1.5)·DelayUS) to a fraction of the messages.
	DelayProb float64
	DelayUS   float64
	// Links lists degraded directed links.
	Links []Link
	// Crashes lists fail-stopped nodes.
	Crashes []Crash
	// Stragglers lists slow nodes.
	Stragglers []Straggler
}

// Validate reports whether the scenario is well-formed. Node indices are
// range-checked against the pool size by the consumer, which knows it
// (CheckNodes).
// Every range is checked so that NaN, which fails every comparison, is
// outside it, and the unbounded ones exclude +Inf.
func (s *Scenario) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropProb", s.DropProb}, {"CorruptProb", s.CorruptProb}, {"DelayProb", s.DelayProb}} {
		if !(p.v >= 0 && p.v < 1) {
			return fmt.Errorf("faults: %s %v outside [0, 1)", p.name, p.v)
		}
	}
	if s.DropProb+s.CorruptProb >= 1 {
		return fmt.Errorf("faults: DropProb+CorruptProb %v ≥ 1", s.DropProb+s.CorruptProb)
	}
	if !(s.DelayUS >= 0) || math.IsInf(s.DelayUS, 1) {
		return fmt.Errorf("faults: DelayUS %v is not a finite number ≥ 0", s.DelayUS)
	}
	for _, l := range s.Links {
		if !(l.Factor > 0 && l.Factor <= 1) {
			return fmt.Errorf("faults: link %d→%d degrade factor %v outside (0, 1]", l.Src, l.Dst, l.Factor)
		}
		if l.Src < 0 || l.Dst < 0 || l.Src == l.Dst {
			return fmt.Errorf("faults: bad degraded link %d→%d", l.Src, l.Dst)
		}
	}
	seen := map[int]bool{}
	for _, c := range s.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("faults: crash of negative node %d", c.Node)
		}
		if !(c.AfterFraction >= 0 && c.AfterFraction <= 1) {
			return fmt.Errorf("faults: crash fraction %v outside [0, 1]", c.AfterFraction)
		}
		if seen[c.Node] {
			return fmt.Errorf("faults: node %d crashes twice", c.Node)
		}
		seen[c.Node] = true
	}
	for _, st := range s.Stragglers {
		if st.Node < 0 {
			return fmt.Errorf("faults: negative straggler node %d", st.Node)
		}
		if !(st.Factor >= 1 && st.Factor <= maxStraggleFactor) {
			return fmt.Errorf("faults: straggle factor %v outside [1, %g]", st.Factor, float64(maxStraggleFactor))
		}
	}
	return nil
}

// CheckNodes reports a crash or a straggler that names a node outside a pool
// of n, which Validate cannot know.
func (s *Scenario) CheckNodes(n int) error {
	for _, c := range s.Crashes {
		if c.Node >= n {
			return fmt.Errorf("faults: crash of node %d outside a pool of %d", c.Node, n)
		}
	}
	for _, st := range s.Stragglers {
		if st.Node >= n {
			return fmt.Errorf("faults: straggler node %d outside a pool of %d", st.Node, n)
		}
	}
	return nil
}

// Fate is the injector's verdict on a single message transmission.
type Fate int

const (
	// Deliver: the message arrives intact.
	Deliver Fate = iota
	// Drop: the message is lost; the sender times out.
	Drop
	// Corrupt: the message arrives bit-flipped; the receiver's piece
	// checksum will fail.
	Corrupt
)

func (f Fate) String() string {
	switch f {
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Fate(%d)", int(f))
	}
}

// Injector answers per-message and per-node fault queries for one scenario.
// It is stateless after construction and safe for concurrent use.
type Injector struct {
	s        Scenario
	links    map[[2]int]float64
	crashes  map[int]float64
	straggle map[int]float64
}

// New validates the scenario and returns its injector.
func New(s Scenario) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		s:        s,
		links:    make(map[[2]int]float64, len(s.Links)),
		crashes:  make(map[int]float64, len(s.Crashes)),
		straggle: make(map[int]float64, len(s.Stragglers)),
	}
	for _, l := range s.Links {
		in.links[[2]int{l.Src, l.Dst}] = l.Factor
	}
	for _, c := range s.Crashes {
		in.crashes[c.Node] = c.AfterFraction
	}
	for _, st := range s.Stragglers {
		in.straggle[st.Node] = st.Factor
	}
	return in, nil
}

// purposes separate the decision streams so that, e.g., the fate draw and
// the jitter draw of the same message are independent.
const (
	purposeFate uint64 = 1 + iota
	purposeDelay
	purposeDelayAmount
	purposeJitter
)

func (in *Injector) u64(purpose uint64, vals ...uint64) uint64 {
	h := hashutil.SplitMix64(in.s.Seed ^ 0x9e3779b97f4a7c15)
	h = hashutil.SplitMix64(h ^ purpose)
	for _, v := range vals {
		h = hashutil.SplitMix64(h ^ v)
	}
	return h
}

// rand01 returns a uniform float64 in [0, 1).
func (in *Injector) rand01(purpose uint64, vals ...uint64) float64 {
	return float64(in.u64(purpose, vals...)>>11) / (1 << 53)
}

// MsgID identifies one transmission attempt of one message for the
// deterministic decision streams. A message, not the pieces it carries,
// draws a fate.
type MsgID struct {
	// Phase salts repeated exchanges (0 = main exchange, 1 = recovery) so
	// they draw independent outcomes.
	Phase uint64
	// Src and Dst name the flow the message belongs to.
	Src, Dst int
	// Msg is the message index within the flow; Round counts the re-send
	// rounds after checksum failures; Attempt counts per-message
	// retransmissions after drops.
	Msg, Round, Attempt int
}

// key fixes the order in which the fields enter the hash; every seeded
// result depends on it, partserver's too (its dispatch draws put the job id
// in Msg).
func (id MsgID) key() []uint64 {
	return []uint64{id.Phase, uint64(id.Src)<<32 | uint64(uint32(id.Dst)),
		uint64(id.Msg), uint64(id.Round), uint64(id.Attempt)}
}

// MessageFate decides what happens to one transmission attempt, and how many
// extra microseconds of delay it suffers when delivered.
func (in *Injector) MessageFate(id MsgID) (Fate, float64) {
	fate := Deliver
	if p := in.s.DropProb + in.s.CorruptProb; p > 0 {
		r := in.rand01(purposeFate, id.key()...)
		switch {
		case r < in.s.DropProb:
			fate = Drop
		case r < p:
			fate = Corrupt
		}
	}
	var delay float64
	if fate != Drop && in.s.DelayProb > 0 && in.rand01(purposeDelay, id.key()...) < in.s.DelayProb {
		delay = in.s.DelayUS * (0.5 + in.rand01(purposeDelayAmount, id.key()...))
	}
	return fate, delay
}

// Jitter returns the uniform [0, 1) jitter draw for this attempt's backoff.
func (in *Injector) Jitter(id MsgID) float64 {
	return in.rand01(purposeJitter, id.key()...)
}

// LinkFactor returns the bandwidth multiplier of the directed link src→dst
// (1 when the link is healthy).
func (in *Injector) LinkFactor(src, dst int) float64 {
	if f, ok := in.links[[2]int{src, dst}]; ok {
		return f
	}
	return 1
}

// CrashPoint reports whether node crashes and, if it does, its fail-stop
// point: floor(AfterFraction × work), in the units the caller counts work in
// (exchange messages, FPGA jobs, routed requests). Each caller compares its
// own count against the point.
func (in *Injector) CrashPoint(node int, work int64) (int64, bool) {
	f, ok := in.crashes[node]
	return int64(f * float64(work)), ok
}

// CrashedNodes returns the sorted list of crashed nodes. It iterates the
// scenario's declaration order, not the lookup map — map iteration order is
// randomized per run and would leak into callers that build piece lists or
// takeover assignments from this slice.
func (in *Injector) CrashedNodes() []int {
	nodes := make([]int, 0, len(in.s.Crashes))
	for _, c := range in.s.Crashes {
		nodes = append(nodes, c.Node)
	}
	sort.Ints(nodes)
	return nodes
}

// StraggleFactor returns node's slowdown multiplier (1 for healthy nodes).
func (in *Injector) StraggleFactor(node int) float64 {
	if f, ok := in.straggle[node]; ok {
		return f
	}
	return 1
}
