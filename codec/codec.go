// Package codec provides the run-length column compression that the
// paper's discussion section pairs with FPGA processing (Section 6:
// compressed columns are the de-facto standard for analytical workloads,
// and decompression "can be done for free on the FPGA as the first step of
// a processing pipeline"). The partitioner consumes RLE-compressed key
// columns directly — see partition.FPGACompressed — turning the saved read
// bandwidth into partitioning throughput on the bandwidth-starved link.
package codec

import "fmt"

// Run is one RLE run: Length consecutive occurrences of Value.
type Run struct {
	Value  uint32
	Length uint32
}

// RunBytes is the encoded size of one run (4 B value + 4 B length).
const RunBytes = 8

// RLEColumn is a run-length-encoded uint32 column.
type RLEColumn struct {
	Runs []Run
	// N is the decompressed value count.
	N int
}

// CompressRLE encodes keys.
func CompressRLE(keys []uint32) *RLEColumn {
	c := &RLEColumn{N: len(keys)}
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] && uint32(j-i) < ^uint32(0) {
			j++
		}
		c.Runs = append(c.Runs, Run{Value: keys[i], Length: uint32(j - i)})
		i = j
	}
	return c
}

// Decompress returns the original column.
func (c *RLEColumn) Decompress() []uint32 {
	out := make([]uint32, 0, c.N)
	for _, r := range c.Runs {
		for k := uint32(0); k < r.Length; k++ {
			out = append(out, r.Value)
		}
	}
	return out
}

// CompressedBytes returns the encoded size.
func (c *RLEColumn) CompressedBytes() int { return len(c.Runs) * RunBytes }

// UncompressedBytes returns the raw column size.
func (c *RLEColumn) UncompressedBytes() int { return c.N * 4 }

// Ratio returns uncompressed/compressed size; > 1 means the encoding saves
// space (RLE loses on high-cardinality unsorted data, where every value is
// its own run).
func (c *RLEColumn) Ratio() float64 {
	if c.CompressedBytes() == 0 {
		return 0
	}
	return float64(c.UncompressedBytes()) / float64(c.CompressedBytes())
}

// Validate checks internal consistency (run lengths sum to N, no empty
// runs).
func (c *RLEColumn) Validate() error {
	var total int64
	for i, r := range c.Runs {
		if r.Length == 0 {
			return fmt.Errorf("codec: empty run at %d", i)
		}
		total += int64(r.Length)
	}
	if total != int64(c.N) {
		return fmt.Errorf("codec: runs cover %d values, N = %d", total, c.N)
	}
	return nil
}
