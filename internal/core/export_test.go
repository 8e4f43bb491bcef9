package core

import "fpgapart/internal/memsys"

// Region exposes the run's shared-memory region to the white-box ownership
// test, which verifies the output lines are FPGA-owned.
func (r *run) Region() *memsys.Region { return r.region }
