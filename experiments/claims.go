package experiments

import "slices"

// Claim is one number of the paper's evaluation: the paper's value for a
// series of an exhibit (the heading EXPERIMENTS.md files it under), and the
// interval [Lo, Hi] ours must fall in, for the reason Why gives. Values are
// in the unit of the exhibit's CSV, except Section 4.8's Mtuples/s. A claim
// with Lo = Hi = 0 is reported, not gated: a bar quoted from related work,
// or one measured on the host.
type Claim struct {
	Exhibit, Series string
	Paper, Lo, Hi   float64
	Why             string
}

// Claims is the table in the paper's order; Figure 9's rows are its bars.
func Claims() []Claim {
	const (
		t1  = "§2.2: the coherence model is calibrated to Table 1, so each cell is the paper's"
		t2  = "§4.4: a structural estimate stands in for synthesis, within 3 points of the device"
		s48 = "§4.8: the calibrated B(r) curve gives the paper's derived rates within 2 %"
		f9  = "§4.8: the paper's model meets its own measurements within 10 %; the simulator gets 12 %"
		raw = "§4.7: a line per cycle caps PAD at 1600 and HIST at 800; at 8 Mi tuples the flush (§4.6) costs up to 12 %"
	)
	return []Claim{
		{"Table 1", "CPU sequential", 0.1381, 0.1381 - 1e-6, 0.1381 + 1e-6, t1},
		{"Table 1", "CPU random", 1.1537, 1.1537 - 1e-6, 1.1537 + 1e-6, t1},
		{"Table 1", "FPGA sequential", 0.1533, 0.1533 - 1e-6, 0.1533 + 1e-6, t1},
		{"Table 1", "FPGA random", 2.4876, 2.4876 - 1e-6, 2.4876 + 1e-6, t1},
		{"Table 2", "8 B logic", 37, 34, 40, t2},
		{"Table 2", "8 B BRAM", 76, 73, 79, t2},
		{"Table 2", "8 B DSP", 14, 11, 17, t2},
		{"Table 2", "16 B logic", 28, 25, 31, t2},
		{"Table 2", "16 B BRAM", 42, 39, 45, t2},
		{"Table 2", "16 B DSP", 21, 18, 24, t2},
		{"Table 2", "32 B logic", 27, 24, 30, t2},
		{"Table 2", "32 B BRAM", 24, 21, 27, t2},
		{"Table 2", "32 B DSP", 11, 8, 14, t2},
		{"Table 2", "64 B logic", 27, 24, 30, t2},
		{"Table 2", "64 B BRAM", 15, 12, 18, t2},
		{"Table 2", "64 B DSP", 6, 3, 9, t2},
		{"Section 4.8", "HIST/RID", 294, 0.98 * 294, 1.02 * 294, s48},
		{"Section 4.8", "HIST/VRID & PAD/RID", 435, 0.98 * 435, 1.02 * 435, s48},
		{"Section 4.8", "PAD/VRID", 495, 0.98 * 495, 1.02 * 495, s48},
		{"Figure 9", "[27] CPU (32 cores)", 1100, 0, 0, "quoted from [27], not run"},
		{"Figure 9", "[37] FPGA (OpenCL)", 256, 0, 0, "quoted from [37], not run"},
		{"Figure 9", "HIST/RID", 299, 0.88 * 299, 1.12 * 299, f9},
		{"Figure 9", "HIST/VRID", 391, 0.88 * 391, 1.12 * 391, f9},
		{"Figure 9", "PAD/RID", 436, 0.88 * 436, 1.12 * 436, f9},
		{"Figure 9", "PAD/VRID", 514, 0.88 * 514, 1.12 * 514, f9},
		{"Figure 9", hostCPU, 506, 0, 0, "the paper's 10-core Xeon; ours is measured on this host"},
		{"Figure 9", "Raw HIST/RID", 799, 0.88 * 799, 1.08 * 800, raw},
		{"Figure 9", "Raw PAD/RID", 1597, 0.88 * 1597, 1.05 * 1600, raw},
	}
}

// ClaimOf returns the claim for a series of an exhibit; it panics on one the
// table lacks.
func ClaimOf(exhibit, series string) Claim {
	claims := Claims()
	return claims[slices.IndexFunc(claims, func(c Claim) bool { return c.Exhibit == exhibit && c.Series == series })]
}
