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
// as in plain VRID mode); PAD overflow has no CPU fallback here — compressed
// skewed columns should use HistMode. Like Exact, it keeps dummy-keyed tuples
// by repartitioning the decompressed column on the CPU (FallbackThreads).
func FPGACompressed(opts FPGAOptions, col *codec.RLEColumn) (result *Result, err error) {
	defer guardSimulator(&err)
	p, err := newFPGA(opts)
	if err != nil {
		return nil, err
	}
	out, stats, err := p.circuit.PartitionCompressed(col)
	if err != nil {
		return nil, err
	}
	rows := func() (*workload.Relation, error) { return workload.FromKeys(col.Decompress(), 8) }
	result, _, err = exact(fpgaResult(out, stats), nil, col.N, rows, opts.Hash, opts.FallbackThreads)
	return result, err
}
