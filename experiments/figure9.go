package experiments

import (
	"fmt"
	"strconv"
	"strings"

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
}

// FPGAModes lists the four modes in the paper's Figure 9 order.
func FPGAModes() []FPGAMode {
	return []FPGAMode{
		{partition.HistMode, partition.RowStore},
		{partition.HistMode, partition.ColumnStore},
		{partition.PadMode, partition.RowStore},
		{partition.PadMode, partition.ColumnStore},
	}
}

// Name is the mode as the paper writes it, e.g. "PAD/VRID".
func (m FPGAMode) Name() string { return fmt.Sprintf("%v/%v", m.Format, m.Layout) }

// hostCPU is the Figure 9 bar of the parallel CPU partitioner.
const hostCPU = "CPU (this host)"

// RunFigure9 measures the end-to-end partitioning throughput of each Figure 9
// bar of the claims table: a mode's name runs it on the Xeon+FPGA link,
// "Raw " and a mode on the raw wrapper (25.6 GB/s), hostCPU the parallel
// CPU partitioner; related work ([27] 32-core CPU, [37] OpenCL FPGA) is quoted.
func RunFigure9(cfg Config) (*Figure9Result, error) {
	cfg = cfg.WithDefaults()
	n := max(int(128e6*cfg.Scale), 1<<15)
	res := &Figure9Result{Tuples: n}
	rel, err := workload.NewGenerator(cfg.Seed).Relation(workload.Random, 8, n)
	if err != nil {
		return nil, err
	}
	col := rel.ToColumns()
	modes := map[string]FPGAMode{}
	for _, m := range FPGAModes() {
		modes[m.Name()] = m
	}
	for _, c := range Claims() {
		if c.Exhibit != "Figure 9" {
			continue
		}
		name, raw := strings.CutPrefix(c.Series, "Raw ")
		m, fpga := modes[name]
		bar, in, plat := Figure9Bar{Name: c.Series}, rel, platform.XeonFPGA()
		var p partition.Partitioner
		switch {
		case fpga:
			if raw {
				plat = platform.RawFPGA()
			}
			if m.Layout == partition.ColumnStore {
				in = col
			}
			bar.Model = model.ForMode(model.ModeOf(m.Format, m.Layout), plat, int64(n)).TotalRate() / 1e6
			p, err = partition.NewFPGA(partition.FPGAOptions{
				Partitions: 8192, Hash: true, Format: m.Format, Layout: m.Layout, PadFraction: 0.5, Platform: plat,
			})
		case c.Series == hostCPU:
			p, err = partition.NewCPU(partition.CPUOptions{Partitions: 8192, Hash: true, Threads: cfg.MaxThreads})
		default:
			bar.MTuplesPerS, bar.Reference = c.Paper, true
		}
		if err != nil {
			return nil, err
		}
		if p != nil {
			r, err := p.Partition(in)
			if err != nil {
				return nil, err
			}
			bar.MTuplesPerS = float64(n) / r.Elapsed().Seconds() / 1e6
		}
		res.Bars = append(res.Bars, bar)
	}
	return res, nil
}

func (res *Figure9Result) Notes() []string {
	return []string{fmt.Sprintf("%d tuples per run, the CPU bar at the thread ceiling; reference rows are quoted from related work, not run", res.Tuples)}
}

func (res *Figure9Result) CSV() [][]string {
	rows := [][]string{{"configuration", "mtuples_per_s", "model", "paper", "reference"}}
	for _, b := range res.Bars {
		rows = append(rows, []string{b.Name, f(b.MTuplesPerS), f(b.Model), f(ClaimOf("Figure 9", b.Name).Paper), strconv.FormatBool(b.Reference)})
	}
	return rows
}
