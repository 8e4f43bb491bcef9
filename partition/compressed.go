package partition

import (
	"fmt"

	"fpgapart/codec"
	"fpgapart/internal/core"
	"fpgapart/platform"
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
	if opts.TupleWidth == 0 {
		opts.TupleWidth = 8
	}
	if opts.Platform == nil {
		opts.Platform = platform.XeonFPGA()
	}
	if opts.Layout != ColumnStore {
		return nil, fmt.Errorf("partition: compressed input requires ColumnStore layout")
	}
	cfg := core.Config{
		NumPartitions: opts.Partitions,
		TupleWidth:    opts.TupleWidth,
		Hash:          opts.Hash,
		Layout:        core.VRID,
		PadFraction:   opts.PadFraction,
		Trace:         opts.Trace,
	}
	if opts.Format == PadMode {
		cfg.Format = core.PAD
	}
	curve := opts.Platform.FPGAAlone
	if opts.Interfered {
		curve = opts.Platform.FPGAInterfered
	}
	circuit, err := core.NewCircuit(cfg, opts.Platform.FPGAClockHz, curve)
	if err != nil {
		return nil, err
	}
	out, stats, err := circuit.PartitionCompressed(col)
	if err != nil {
		return nil, err
	}
	res := &Result{
		numPartitions: out.NumPartitions,
		elapsed:       stats.Elapsed,
		fpga:          out,
		Stats:         *stats,
	}
	rows := func() (*workload.Relation, error) { return workload.FromKeys(col.Decompress(), 8) }
	result, _, err = exact(res, nil, col.N, rows, opts.Hash, opts.FallbackThreads)
	return result, err
}
