package experiments

import (
	"fmt"

	"fpgapart/internal/model"
	"fpgapart/platform"
)

// ModelPoint is the cost model at one operating point of Section 4.8.
type ModelPoint struct {
	Mode string
	model.Params
}

// ModelValidationResult is the Section 4.8 table.
type ModelValidationResult struct {
	Rows []ModelPoint
}

// RunModelValidation evaluates the cost model at the three operating points
// of Section 4.8 (N = 128e6, W = 8 B, the Xeon+FPGA link); r = 1 covers
// both HIST/VRID and PAD/RID.
func RunModelValidation(cfg Config) (*ModelValidationResult, error) {
	res := &ModelValidationResult{}
	for _, c := range []struct {
		name string
		mode model.Mode
	}{{"HIST/RID", model.Mode{Hist: true}}, {"HIST/VRID & PAD/RID", model.Mode{}}, {"PAD/VRID", model.Mode{VRID: true}}} {
		res.Rows = append(res.Rows, ModelPoint{c.name, model.ForMode(c.mode, platform.XeonFPGA(), 128e6)})
	}
	return res, nil
}

// Notes gives the unconstrained pipeline rate, the same at every point.
func (res *ModelValidationResult) Notes() []string {
	return []string{fmt.Sprintf("circuit rate B_FPGA = %.2f Gtuples/s at 200 MHz", res.Rows[0].CircuitRate()/1e9)}
}

func (res *ModelValidationResult) CSV() [][]string {
	rows := [][]string{{"mode", "ratio", "bandwidth_gbps", "predicted_tuples_per_s", "paper_tuples_per_s"}}
	for _, v := range res.Rows {
		r := v.ReadWriteRatio
		rows = append(rows, []string{v.Mode, f(r), f(v.Bandwidth.AtRatio(r)), f(v.TotalRate()), f(ClaimOf("Section 4.8", v.Mode).Paper * 1e6)})
	}
	return rows
}
