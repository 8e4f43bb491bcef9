package core

import (
	"fmt"

	"fpgapart/codec"
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
func (c *Circuit) PartitionCompressed(col *codec.RLEColumn) (*Output, Stats, error) {
	if c.cfg.Layout != VRID {
		return nil, Stats{}, fmt.Errorf("core: compressed input requires VRID mode, circuit is %v", c.cfg.Layout)
	}
	if err := col.Validate(); err != nil {
		return nil, Stats{}, err
	}
	return c.partition(nil, col)
}

// nextCompressedGroup is nextGroup's decompressor path: it moves the feed
// to the next lane group's last key and fetches the compressed lines up to
// the one holding that key's run (runs are fixed-width, so run i sits in
// line i*RunBytes/64, as the hardware's sequential reader sees it), over
// several cycles under read back-pressure; then it expands the group in
// one cycle. It returns the group's size, 0 for a bubble.
func (r *run) nextCompressedGroup() int {
	n := int(min(r.total-r.next, int64(r.lanes)))
	r.feed.key(r.next + int64(n) - 1)
	for end := int64(r.feed.run) * codec.RunBytes / 64; r.compLine < end; r.compLine++ {
		if !r.ep.CanRead() {
			r.stats.StallsBackpressure++
			return 0
		}
		r.ep.Read()
		r.stats.LinesRead++
	}
	r.next += int64(n)
	r.stats.TuplesIn += int64(n)
	return n
}
