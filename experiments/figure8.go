package experiments

import (
	"strconv"

	"fpgapart/internal/model"
	"fpgapart/partition"
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
	bytesBudget := max(int(1<<30*cfg.Scale*4), 1<<26)
	for _, width := range []int{8, 16, 32, 64} {
		n := bytesBudget / width
		rel, err := workload.NewGenerator(cfg.Seed).Relation(workload.Random, width, n)
		if err != nil {
			return nil, err
		}
		fpga, err := partition.NewFPGA(partition.FPGAOptions{
			Partitions: 8192, TupleWidth: width, Hash: true, Format: partition.HistMode, Platform: p,
		})
		if err != nil {
			return nil, err
		}
		r, err := fpga.Partition(rel)
		if err != nil {
			return nil, err
		}
		m := model.ForMode(model.ModeOf(partition.HistMode, partition.RowStore), p, int64(n))
		m.TupleWidth = width
		// Stats is the circuit run's, also when a dummy-keyed input fell back.
		res.Points = append(res.Points, Figure8Point{
			TupleWidth:       width,
			MTuplesPerS:      r.Stats.ThroughputTuplesPerSec() / 1e6,
			GBps:             r.Stats.DataProcessedGBps(),
			ModelMTuplesPerS: m.TotalRate() / 1e6,
		})
	}
	return res, nil
}

func (res *Figure8Result) Notes() []string {
	return []string{"paper shape: tuples/s halves per width doubling; GB/s stays flat"}
}

func (res *Figure8Result) CSV() [][]string {
	rows := [][]string{{"tuple_width", "mtuples_per_s", "gbps", "model_mtuples_per_s"}}
	for _, p := range res.Points {
		rows = append(rows, []string{strconv.Itoa(p.TupleWidth), f(p.MTuplesPerS), f(p.GBps), f(p.ModelMTuplesPerS)})
	}
	return rows
}
