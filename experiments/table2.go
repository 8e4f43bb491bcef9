package experiments

import (
	"strconv"

	"fpgapart/internal/core"
)

// Table2Result reproduces the resource-usage table.
type Table2Result struct {
	Rows []core.ResourceUsage
}

// RunTable2 estimates FPGA resource usage for the four tuple-width
// configurations at the paper's 8192-partition fan-out.
func RunTable2(cfg Config) (*Table2Result, error) {
	res := &Table2Result{}
	for _, w := range []int{8, 16, 32, 64} {
		res.Rows = append(res.Rows, core.EstimateResources(core.Config{
			NumPartitions: 8192,
			TupleWidth:    w,
		}))
	}
	return res, nil
}

func (res *Table2Result) Notes() []string {
	return []string{"paper: 8B 37/76/14, 16B 28/42/21, 32B 27/24/11, 64B 27/15/6 (logic/BRAM/DSP %)"}
}

func (res *Table2Result) CSV() [][]string {
	rows := [][]string{{"tuple_width", "logic_pct", "bram_pct", "dsp_pct", "alms", "m20ks", "dsps"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.TupleWidth), f(r.LogicPct), f(r.BRAMPct), f(r.DSPPct),
			strconv.Itoa(r.ALMs), strconv.Itoa(r.M20Ks), strconv.Itoa(r.DSPBlocks)})
	}
	return rows
}
