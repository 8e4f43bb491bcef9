package experiments

import (
	"fmt"
	"io"

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

func (res *ModelValidationResult) Text(w io.Writer) {
	header(w, "Section 4.6/4.8: cost model validation (N = 128e6, W = 8 B)")
	fmt.Fprintf(w, "circuit rate B_FPGA = %.2f Gtuples/s at 200 MHz\n", res.CircuitRate/1e9)
	fmt.Fprintf(w, "%-22s %6s %10s %14s %14s\n", "mode", "r", "B(r) GB/s", "model Mt/s", "paper Mt/s")
	for _, v := range res.Rows {
		fmt.Fprintf(w, "%-22s %6.1f %10.2f %14.0f %14.0f\n",
			v.Mode, v.Ratio, v.Bandwidth, v.Predicted/1e6, v.Paper/1e6)
	}
}

func (res *ModelValidationResult) CSV() [][]string {
	rows := [][]string{{"mode", "ratio", "bandwidth_gbps", "predicted_tuples_per_s", "paper_tuples_per_s"}}
	for _, v := range res.Rows {
		rows = append(rows, []string{v.Mode, f(v.Ratio), f(v.Bandwidth), f(v.Predicted), f(v.Paper)})
	}
	return rows
}
