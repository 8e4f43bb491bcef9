// Package core implements the paper's primary contribution: the fully
// pipelined FPGA data-partitioning circuit of Section 4, as a cycle-level
// simulator. The simulator executes the dataflow of Figure 5 — per-lane hash
// function modules (Code 3), first-stage FIFOs, write combiner modules with
// the BRAM fill-rate forwarding of Code 4 (Figure 6), and the write-back
// module with prefix-sum and offset BRAMs (Section 4.3) — against real input
// relations, producing real partitioned output, while counting clock cycles
// under the QPI bandwidth back-pressure model.
//
// Two properties of the hardware design become checkable invariants here:
// the circuit never stalls for internal (hazard) reasons regardless of the
// input pattern, and it consumes and produces a 64-byte cache line per clock
// cycle whenever the link allows it.
package core

import (
	"errors"
	"fmt"

	"fpgapart/internal/hashutil"
	"fpgapart/internal/simtrace"
	"fpgapart/workload"
)

// Format selects how the partitioner lays out its output (Section 4.5).
type Format int

const (
	// HIST: a first pass over the relation builds a histogram in BRAM; a
	// second pass writes tuples using the prefix sum. Minimal intermediate
	// memory and robust against any skew, at the cost of reading the data
	// twice.
	HIST Format = iota
	// PAD: every partition is preassigned a fixed, padded size and the data
	// is partitioned in a single pass. If any partition overflows its
	// preassigned space the run aborts (ErrPartitionOverflow) and the caller
	// falls back to a CPU partitioner.
	PAD
)

func (f Format) String() string {
	switch f {
	case HIST:
		return "HIST"
	case PAD:
		return "PAD"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Layout selects the input layout mode (Section 4.5).
type Layout int

const (
	// RID: tuples reside in memory as <key, payload> records.
	RID Layout = iota
	// VRID: column-store mode — the circuit reads only the key array and
	// appends a 4-byte virtual record ID on the FPGA, forming <4B key,
	// 4B VRID> output tuples. Halves the read traffic.
	VRID
)

func (l Layout) String() string {
	switch l {
	case RID:
		return "RID"
	case VRID:
		return "VRID"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ErrPartitionOverflow is returned by a PAD-mode run when a partition
// outgrows its preassigned padded size. The paper's system falls back to a
// CPU partitioner when this happens (Section 4.5); the partition package
// implements that fallback.
var ErrPartitionOverflow = errors.New("core: partition overflowed its padded size (PAD mode)")

// DefaultDummyKey fills the unused slots of partially filled cache lines
// during the flush (Section 4.2). Software consuming the partitions skips
// tuples bearing this key, so it must not occur in the data; the paper's key
// distributions (linear from 1, C rand() below 2^31, grid bytes in 1..128)
// all avoid 0xFFFFFFFF.
const DefaultDummyKey uint32 = 0xFFFFFFFF

// dummyWord is an 8-byte output slot holding a dummy-key tuple.
const dummyWord = uint64(DefaultDummyKey) | uint64(DefaultDummyKey)<<32

// Config describes one partitioner circuit configuration. The zero value is
// not valid; use Validate (or the partition package, which fills defaults).
type Config struct {
	// NumPartitions is the fan-out; must be a power of two (the partition
	// index is the low bits of the hashed key).
	NumPartitions int

	// TupleWidth is the input tuple width in bytes: 8, 16, 32 or 64.
	// In VRID mode the circuit reads bare 4-byte keys and always emits
	// 8-byte <key, VRID> tuples, so TupleWidth must be 8.
	TupleWidth int

	// Hash selects murmur hashing; false selects radix bits (Code 3's
	// do_hash flag). On the FPGA the choice does not affect throughput.
	Hash bool

	Format Format
	Layout Layout

	// PadFraction is PAD mode's per-partition headroom: each partition is
	// sized ceil(N/P · (1+PadFraction)) tuples, rounded up to cache lines.
	PadFraction float64

	// Stage1FIFODepth is the per-lane FIFO between hash module and write
	// combiner; OutFIFODepth is each combiner's output FIFO (Figure 5).
	Stage1FIFODepth int
	OutFIFODepth    int

	// DisableForwarding removes the forwarding registers of Code 4: the
	// write combiner must then stall for the fill-rate BRAM's read latency
	// whenever consecutive tuples hit the same partition. Ablation only.
	DisableForwarding bool

	// DisableWriteCombiner models the strawman of Section 4.2: every tuple
	// triggers a read-modify-write of its destination cache line, inflating
	// memory traffic 16×. Ablation only — output is still produced via the
	// combiner datapath, but the QPI accounting charges the naive traffic.
	DisableWriteCombiner bool

	// Trace attaches a simtrace session: the run reports its counters and
	// gauges into Trace.Metrics, and emits phase spans plus windowed
	// counter samples (every Trace.Window() cycles) into Trace.Tracer.
	// Successive runs on the same circuit accumulate into the session and
	// lay out sequentially on its timeline. Nil disables all tracing; the
	// per-cycle cost is then a single nil check and zero allocations.
	Trace *simtrace.Session
}

// RadixBits returns log2(NumPartitions).
func (c *Config) RadixBits() uint { return hashutil.Log2(c.NumPartitions) }

// Lanes returns the number of tuples the circuit handles per internal cycle:
// one cache line's worth. In VRID mode the circuit processes 8 generated
// <key, VRID> tuples per cycle, consuming half an input key line.
func (c *Config) Lanes() int {
	if c.Layout == VRID {
		return 8
	}
	return workload.CacheLineBytes / c.TupleWidth
}

// OutputTupleWidth returns the width of tuples in the produced partitions:
// the input width for RID, 8 bytes (<4B key, 4B VRID>) for VRID.
func (c *Config) OutputTupleWidth() int {
	if c.Layout == VRID {
		return 8
	}
	return c.TupleWidth
}

// WithDefaults returns a copy with unset tunables filled in.
func (c Config) WithDefaults() Config {
	if c.PadFraction == 0 {
		c.PadFraction = 0.15
	}
	if c.Stage1FIFODepth == 0 {
		c.Stage1FIFODepth = 16
	}
	if c.OutFIFODepth == 0 {
		c.OutFIFODepth = 8
	}
	return c
}

// Validate reports whether the configuration is one the circuit can be
// synthesized for.
func (c *Config) Validate() error {
	if !hashutil.IsPowerOfTwo(c.NumPartitions) {
		return fmt.Errorf("core: NumPartitions %d is not a power of two", c.NumPartitions)
	}
	if c.NumPartitions < 2 {
		return fmt.Errorf("core: NumPartitions %d < 2", c.NumPartitions)
	}
	switch c.TupleWidth {
	case 8, 16, 32, 64:
	default:
		return fmt.Errorf("core: TupleWidth %d not in {8,16,32,64}", c.TupleWidth)
	}
	if c.Format != HIST && c.Format != PAD {
		return fmt.Errorf("core: unknown %v", c.Format)
	}
	if c.Layout != RID && c.Layout != VRID {
		return fmt.Errorf("core: unknown %v", c.Layout)
	}
	if c.Layout == VRID && c.TupleWidth != 8 {
		return fmt.Errorf("core: VRID mode emits 8-byte <key,VRID> tuples; TupleWidth must be 8, got %d", c.TupleWidth)
	}
	if c.PadFraction < 0 {
		return fmt.Errorf("core: negative PadFraction %v", c.PadFraction)
	}
	if c.Stage1FIFODepth < 8 {
		return fmt.Errorf("core: Stage1FIFODepth %d too shallow for the 5-stage hash pipeline", c.Stage1FIFODepth)
	}
	if c.OutFIFODepth < 2 {
		return fmt.Errorf("core: OutFIFODepth %d < 2", c.OutFIFODepth)
	}
	return nil
}
