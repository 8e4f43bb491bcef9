package experiments

import (
	"fmt"

	"fpgapart/internal/model"
	"fpgapart/platform"
)

// ModelValidationResult is the Section 4.8 table.
type ModelValidationResult struct {
	Rows []model.Validation
	// CircuitRate is the unconstrained pipeline rate, 1.6 Gtuples/s.
	CircuitRate float64
}

// RunModelValidation evaluates the cost model at the three operating points
// of Section 4.8.
func RunModelValidation(cfg Config) (*ModelValidationResult, error) {
	p := platform.XeonFPGA()
	params := model.ForMode(model.Mode{}, p, 128e6)
	return &ModelValidationResult{
		Rows:        model.Validate(p),
		CircuitRate: params.CircuitRate(),
	}, nil
}

func (res *ModelValidationResult) Notes() []string {
	return []string{fmt.Sprintf("circuit rate B_FPGA = %.2f Gtuples/s at 200 MHz", res.CircuitRate/1e9)}
}

func (res *ModelValidationResult) CSV() [][]string {
	rows := [][]string{{"mode", "ratio", "bandwidth_gbps", "predicted_tuples_per_s", "paper_tuples_per_s"}}
	for _, v := range res.Rows {
		rows = append(rows, []string{v.Mode, f(v.Ratio), f(v.Bandwidth), f(v.Predicted), f(v.Paper)})
	}
	return rows
}
