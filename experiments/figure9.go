package experiments

import (
	"fmt"
	"strconv"

	"fpgapart/internal/model"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// Figure9Bar is one bar of Figure 9.
type Figure9Bar struct {
	Name        string
	MTuplesPerS float64
	// Model is the cost model's prediction (0 when not applicable).
	Model float64
	// Paper is the paper's reported value for reference.
	Paper float64
	// Reference marks bars quoted from related work rather than run here.
	Reference bool
}

// Figure9Result is the full bar chart.
type Figure9Result struct {
	Tuples int
	Bars   []Figure9Bar
}

// FPGAMode is one of the four FPGA partitioner configurations the paper
// sweeps in Figure 9 (HIST/PAD output strategy × RID/VRID input layout).
// The table is shared by the Figure 9 experiment and the perfbench matrix,
// so BENCH record names line up with the paper's bars.
type FPGAMode struct {
	Format partition.Format
	Layout partition.Layout
	// PaperMTuplesPerS is the throughput the paper reports for this mode on
	// the platform it is run on (0 where the paper reports none).
	PaperMTuplesPerS float64
}

// FPGAModes lists the four modes in the paper's Figure 9 order.
func FPGAModes() []FPGAMode {
	return []FPGAMode{
		{partition.HistMode, partition.RowStore, 299},
		{partition.HistMode, partition.ColumnStore, 391},
		{partition.PadMode, partition.RowStore, 436},
		{partition.PadMode, partition.ColumnStore, 514},
	}
}

// Name is the mode as the paper writes it, e.g. "PAD/VRID".
func (m FPGAMode) Name() string { return fmt.Sprintf("%v/%v", m.Format, m.Layout) }

// RunFigure9 measures end-to-end partitioning throughput of the four FPGA
// modes on the Xeon+FPGA link, the parallel CPU partitioner on the host, and
// the raw-wrapper circuit (25.6 GB/s), alongside the related-work reference
// points the paper plots ([27] 32-core CPU, [37] OpenCL FPGA).
func RunFigure9(cfg Config) (*Figure9Result, error) {
	cfg = cfg.WithDefaults()
	n := max(int(128e6*cfg.Scale), 1<<15)
	res := &Figure9Result{Tuples: n}

	res.Bars = append(res.Bars,
		Figure9Bar{Name: "[27] CPU (32 cores)", MTuplesPerS: 1100, Paper: 1100, Reference: true},
		Figure9Bar{Name: "[37] FPGA (OpenCL)", MTuplesPerS: 256, Paper: 256, Reference: true},
	)

	rel, err := workload.NewGenerator(cfg.Seed).Relation(workload.Random, 8, n)
	if err != nil {
		return nil, err
	}
	col := rel.ToColumns()
	bar := func(name string, m FPGAMode, plat *platform.Platform) error {
		in := rel
		if m.Layout == partition.ColumnStore {
			in = col
		}
		p, err := partition.NewFPGA(partition.FPGAOptions{
			Partitions: 8192, Hash: true, Format: m.Format, Layout: m.Layout,
			PadFraction: 0.5, Platform: plat,
		})
		if err != nil {
			return err
		}
		r, err := p.Partition(in)
		if err != nil {
			return err
		}
		res.Bars = append(res.Bars, Figure9Bar{
			Name:        name,
			MTuplesPerS: float64(n) / r.Elapsed().Seconds() / 1e6,
			Model:       model.ForMode(model.ModeOf(m.Format, m.Layout), plat, int64(n)).TotalRate() / 1e6,
			Paper:       m.PaperMTuplesPerS,
		})
		return nil
	}

	xeon := platform.XeonFPGA()
	for _, m := range FPGAModes() {
		if err := bar(m.Name(), m, xeon); err != nil {
			return nil, err
		}
	}

	// CPU partitioner, measured at the maximum thread count.
	cpu, err := partition.NewCPU(partition.CPUOptions{Partitions: 8192, Hash: true, Threads: cfg.MaxThreads})
	if err != nil {
		return nil, err
	}
	cpuRes, err := cpu.Partition(rel)
	if err != nil {
		return nil, err
	}
	res.Bars = append(res.Bars, Figure9Bar{
		Name:        fmt.Sprintf("CPU (%d threads, this host)", cfg.MaxThreads),
		MTuplesPerS: float64(n) / cpuRes.Elapsed().Seconds() / 1e6,
		Paper:       506,
	})

	// The raw wrapper's bars, with the throughput the paper reports for them.
	for _, m := range []FPGAMode{
		{partition.HistMode, partition.RowStore, 799},
		{partition.PadMode, partition.RowStore, 1597},
	} {
		if err := bar(fmt.Sprintf("Raw FPGA (%v)", m.Format), m, platform.RawFPGA()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (res *Figure9Result) Notes() []string {
	return []string{fmt.Sprintf("%d tuples per run; reference rows are quoted from related work, not run", res.Tuples)}
}

func (res *Figure9Result) CSV() [][]string {
	rows := [][]string{{"configuration", "mtuples_per_s", "model", "paper", "reference"}}
	for _, b := range res.Bars {
		rows = append(rows, []string{b.Name, f(b.MTuplesPerS), f(b.Model), f(b.Paper), strconv.FormatBool(b.Reference)})
	}
	return rows
}
