package partition

import (
	"fpgapart/codec"
	"fpgapart/workload"
)

// FPGACompressed partitions an RLE-compressed key column on the simulated
// FPGA circuit: decompression happens inside the pipeline "for free"
// (Section 6 of the paper), so the QPI read channel carries only the
// compressed bytes and the saved bandwidth becomes partitioning throughput.
// The options must select ColumnStore layout (output tuples are <key, VRID>,
// as in plain VRID mode). A PAD overflow or a dummy-keyed tuple falls back as
// in Partition, over the decompressed column.
func FPGACompressed(opts FPGAOptions, col *codec.RLEColumn) (result *Result, err error) {
	defer guardSimulator(&err)
	p, err := newFPGA(opts)
	if err != nil {
		return nil, err
	}
	out, stats, err := p.circuit.PartitionCompressed(col)
	return p.result(out, stats, err, func() (*workload.Relation, error) { return workload.FromKeys(col.Decompress(), 8) })
}
