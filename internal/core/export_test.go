package core

import (
	"fpgapart/codec"
	"fpgapart/workload"
)

// walk is the stepping hook: it runs rel (or, when comp is set, the
// decompressor's key stream) through a traced circuit as Partition does and
// calls visit with the run before its first cycle and after every cycle of
// every pass.
func (c *Circuit) walk(rel *workload.Relation, comp *codec.RLEColumn, visit func(*run)) (Stats, error) {
	r := c.newRun(rel, comp)
	defer c.pl.stop()
	visit(r)
	r.pr.everyCycle = visit
	err := r.execute()
	return r.stats, err
}

// SetPlacementHook makes every placement goroutine call hook after each log
// chunk it receives, until the returned function restores the previous hook.
// Tests set it between runs, never during one.
func SetPlacementHook(hook func()) (restore func()) {
	prev := placementHook
	placementHook = hook
	return func() { placementHook = prev }
}
