package experiments

import (
	"fmt"
	"io"
	"strconv"

	"fpgapart/internal/core"
	"fpgapart/internal/model"
	"fpgapart/platform"
	"fpgapart/workload"
)

// Figure8Point is one tuple-width measurement of Figure 8.
type Figure8Point struct {
	TupleWidth       int
	MTuplesPerS      float64
	GBps             float64
	ModelMTuplesPerS float64
}

// Figure8Result is the width sweep (HIST/RID mode, as in the paper).
type Figure8Result struct {
	Points []Figure8Point
}

// RunFigure8 runs the circuit simulator in HIST/RID mode for 8–64 B tuples
// on the Xeon+FPGA link and reports tuples/s, total data processed, and the
// cost model's prediction.
func RunFigure8(cfg Config) (*Figure8Result, error) {
	cfg = cfg.WithDefaults()
	p := platform.XeonFPGA()
	res := &Figure8Result{}
	// At least 64 MB per run, so the fixed 65540-cycle flush and its dummy
	// lines stay below ~7% and the cost model (which hides them in the
	// latency term) remains comparable.
	bytesBudget := int(1 << 30 * cfg.Scale * 4)
	if bytesBudget < 1<<26 {
		bytesBudget = 1 << 26
	}
	for _, width := range []int{8, 16, 32, 64} {
		n := bytesBudget / width
		rel, err := workload.NewGenerator(cfg.Seed).Relation(workload.Random, width, n)
		if err != nil {
			return nil, err
		}
		circuit, err := core.NewCircuit(core.Config{
			NumPartitions: 8192,
			TupleWidth:    width,
			Hash:          true,
			Format:        core.HIST,
		}, p.FPGAClockHz, p.FPGAAlone)
		if err != nil {
			return nil, err
		}
		_, stats, err := circuit.Partition(rel)
		if err != nil {
			return nil, err
		}
		m := model.Params{
			FPGAClockHz:    p.FPGAClockHz,
			TupleWidth:     width,
			N:              int64(n),
			Hist:           true,
			ReadWriteRatio: 2,
			Bandwidth:      p.FPGAAlone,
		}
		res.Points = append(res.Points, Figure8Point{
			TupleWidth:       width,
			MTuplesPerS:      stats.ThroughputTuplesPerSec() / 1e6,
			GBps:             stats.DataProcessedGBps(),
			ModelMTuplesPerS: m.TotalRate() / 1e6,
		})
	}
	return res, nil
}

func (res *Figure8Result) Text(w io.Writer) {
	header(w, "Figure 8: throughput and data processed vs tuple width (HIST/RID)")
	fmt.Fprintf(w, "%-12s %14s %18s %14s\n", "Tuple width", "Mtuples/s", "data processed GB/s", "model Mt/s")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-12s %14.0f %18.2f %14.0f\n",
			fmt.Sprintf("%dB", p.TupleWidth), p.MTuplesPerS, p.GBps, p.ModelMTuplesPerS)
	}
	fmt.Fprintln(w, "paper shape: tuples/s halves per width doubling; GB/s stays flat")
}

func (res *Figure8Result) CSV() [][]string {
	rows := [][]string{{"tuple_width", "mtuples_per_s", "gbps", "model_mtuples_per_s"}}
	for _, p := range res.Points {
		rows = append(rows, []string{strconv.Itoa(p.TupleWidth), f(p.MTuplesPerS), f(p.GBps), f(p.ModelMTuplesPerS)})
	}
	return rows
}
