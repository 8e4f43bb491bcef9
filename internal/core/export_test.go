package core

import (
	"fpgapart/internal/memsys"
	"fpgapart/workload"
)

// Region exposes the run's shared-memory region to the white-box ownership
// test, which verifies the output lines are FPGA-owned.
func (r *run) Region() *memsys.Region { return r.region }

// walk is the stepping hook: it runs rel (or, when comp is set, the
// decompressor's key stream) through a traced circuit as Partition does and
// calls visit with the run before its first cycle and after every cycle of
// every pass.
func (c *Circuit) walk(rel *workload.Relation, comp *rleFeed, visit func(*run)) (*Stats, error) {
	r, err := c.newRun(rel, comp)
	if err != nil {
		return nil, err
	}
	visit(r)
	r.pr.everyCycle = visit
	return r.stats, r.execute()
}
