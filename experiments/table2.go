package experiments

import (
	"fmt"
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

func (res *Table2Result) Notes() []string { return nil }

// CSV has one record per tuple width, the paper's three percentages last.
func (res *Table2Result) CSV() [][]string {
	rows := [][]string{{"tuple_width", "logic_pct", "bram_pct", "dsp_pct", "alms", "m20ks", "dsps",
		"paper_logic_pct", "paper_bram_pct", "paper_dsp_pct"}}
	for _, r := range res.Rows {
		w := fmt.Sprint(r.TupleWidth, " B ")
		rows = append(rows, []string{strconv.Itoa(r.TupleWidth), f(r.LogicPct), f(r.BRAMPct), f(r.DSPPct), strconv.Itoa(r.ALMs),
			strconv.Itoa(r.M20Ks), strconv.Itoa(r.DSPBlocks), f(ClaimOf("Table 2", w+"logic").Paper), f(ClaimOf("Table 2", w+"BRAM").Paper), f(ClaimOf("Table 2", w+"DSP").Paper)})
	}
	return rows
}
