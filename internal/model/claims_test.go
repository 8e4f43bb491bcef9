package model_test

import (
	"testing"

	"fpgapart/experiments"
	"fpgapart/internal/model"
	"fpgapart/platform"
)

// TestSection48Validation evaluates the calibrated model at the paper's three
// operating points (N = 128e6, W = 8 B, r = 2, 1 and 0.5) and holds each rate
// to the interval the claims table in package experiments gives it.
func TestSection48Validation(t *testing.T) {
	for _, p := range []struct {
		series string
		mode   model.Mode
	}{{"HIST/RID", model.Mode{Hist: true}}, {"HIST/VRID & PAD/RID", model.Mode{}}, {"PAD/VRID", model.Mode{VRID: true}}} {
		got := model.ForMode(p.mode, platform.XeonFPGA(), 128e6).TotalRate() / 1e6
		if c := experiments.ClaimOf("Section 4.8", p.series); got < c.Lo || got > c.Hi {
			t.Errorf("%s: predicted %.0f Mtuples/s, outside [%.0f, %.0f]: %s", p.series, got, c.Lo, c.Hi, c.Why)
		}
	}
}
