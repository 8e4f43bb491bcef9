package core

import (
	"fmt"

	"fpgapart/codec"
	"fpgapart/internal/hashutil"
)

// PartitionCompressed runs the circuit over an RLE-compressed key column in
// VRID mode: a decompressor stage in front of the hash pipelines expands
// runs at up to one lane group per cycle, so the QPI read channel only
// carries the compressed bytes (Section 6: "decompression ... for free on
// the FPGA as the first step of a processing pipeline"). Output tuples are
// <key, VRID> exactly as in plain VRID mode.
//
// On the bandwidth-starved link this converts the compression ratio into
// partitioning throughput; incompressible columns (ratio < 1: RLE stores
// 8 bytes per single-value run) cost proportionally more reads instead.
func (c *Circuit) PartitionCompressed(col *codec.RLEColumn) (*Output, *Stats, error) {
	if c.cfg.Layout != VRID {
		return nil, nil, fmt.Errorf("core: compressed input requires VRID mode, circuit is %v", c.cfg.Layout)
	}
	if err := col.Validate(); err != nil {
		return nil, nil, err
	}
	return c.partition(nil, newRLEFeed(col))
}

// nextCompressedGroup is nextGroup's decompressor path: fetch whatever
// compressed lines the next lane group needs (possibly over several cycles
// under read back-pressure), then expand up to one group of keys per cycle.
func (r *run) nextCompressedGroup(g *group) bool {
	if r.compPending < 0 {
		r.compPending = r.comp.pendingLines(r.lanes)
	}
	for r.compPending > 0 && r.ep.CanRead() {
		r.ep.Read()
		r.stats.LinesRead++
		r.compPending--
	}
	if r.compPending > 0 {
		r.stats.StallsBackpressure++
		return false
	}
	var keys [8]uint32
	n := r.comp.emit(r.lanes, keys[:])
	if n == 0 {
		return false
	}
	for i := 0; i < n; i++ {
		g.t[i].part = hashutil.PartitionIndex32(keys[i], r.radix, r.cfg.Hash)
	}
	g.n = n
	r.next += int64(n)
	r.stats.TuplesIn += int64(n)
	r.compPending = -1
	return true
}

// rleFeed is the decompressor model: it tracks which compressed cache line
// each run resides in and charges QPI reads only when the key stream
// crosses into a new compressed line.
type rleFeed struct {
	col *codec.RLEColumn
	n   int64

	// Cursor state.
	run       int   // current run index
	usedInRun int64 // values already emitted from the current run
	lastLine  int64 // last compressed line charged (-1 before the first)
}

func newRLEFeed(col *codec.RLEColumn) *rleFeed {
	return &rleFeed{col: col, n: int64(col.N), lastLine: -1}
}

// rewind puts the cursor back in front of the first run.
func (f *rleFeed) rewind() { f.run, f.usedInRun, f.lastLine = 0, 0, -1 }

// lineOfRun returns the compressed cache line holding run i (runs are
// fixed-width, so this is pure arithmetic, as the hardware's sequential
// reader would see it).
func (f *rleFeed) lineOfRun(i int) int64 {
	return int64(i) * codec.RunBytes / 64
}

// pendingLines returns how many new compressed lines must be fetched before
// the next group of up to `lanes` keys can be emitted.
func (f *rleFeed) pendingLines(lanes int) int64 {
	if f.run >= len(f.col.Runs) {
		return 0
	}
	// The group may span multiple runs; find the run holding its last key.
	remaining := int64(lanes)
	run, used := f.run, f.usedInRun
	last := run
	for remaining > 0 && run < len(f.col.Runs) {
		avail := int64(f.col.Runs[run].Length) - used
		if avail > remaining {
			avail = remaining
		}
		remaining -= avail
		used += avail
		last = run
		if used == int64(f.col.Runs[run].Length) {
			run++
			used = 0
		}
	}
	endLine := f.lineOfRun(last)
	if endLine <= f.lastLine {
		return 0
	}
	if f.lastLine < 0 {
		return endLine + 1
	}
	return endLine - f.lastLine
}

// emit produces up to lanes keys, advancing the cursor, and records the
// compressed lines covered by the emitted keys as fetched (matching what
// pendingLines charged for this group).
func (f *rleFeed) emit(lanes int, out []uint32) int {
	n := 0
	lastRun := -1
	for n < lanes && f.run < len(f.col.Runs) {
		r := f.col.Runs[f.run]
		out[n] = r.Value
		lastRun = f.run
		n++
		f.usedInRun++
		if f.usedInRun == int64(r.Length) {
			f.run++
			f.usedInRun = 0
		}
	}
	if lastRun >= 0 {
		if l := f.lineOfRun(lastRun); l > f.lastLine {
			f.lastLine = l
		}
	}
	return n
}
