// Package boundfix is the known-bad fixture for the boundary-reach
// analyzer. The tests configure it as a boundary package; it reaches the
// internal panic site in fpgapart/internal/fixpanic only THROUGH the
// sibling package boundhelper, so every flagged function here is invisible
// to a per-package call scan — the gap the call-graph engine exists to
// close.
package boundfix

import (
	"errors"
	"fmt"

	"fpgapart/fixture/boundhelper"
	"fpgapart/internal/fixpanic"
)

// ErrSimulatorFault mirrors the partition package's sentinel.
var ErrSimulatorFault = errors.New("boundfix: simulator invariant fault")

// TwoHop reaches the internal panic site via boundfix → boundhelper.Route →
// fixpanic.Checked: two hops, the middle one in another package.
func TwoHop(v int) (int, error) { // want boundary-reach
	return boundhelper.Route(v), nil
}

// Swallow recovers but converts the panic into a bare error without the
// sentinel, so errors.Is(err, ErrSimulatorFault) can never see it.
func Swallow(v int) (out int, err error) { // want boundary-reach
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("swallowed: %v", r)
		}
	}()
	return boundhelper.Route(v), nil
}

// Guarded wraps the sentinel at the boundary — the cross-package chain is
// cut at the guard.
func Guarded(v int) (out int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrSimulatorFault, r)
		}
	}()
	return boundhelper.Route(v), nil
}

// CallsGuarded reaches the internals only through the already-guarded
// exported API above — safe without a guard of its own.
func CallsGuarded(v int) (int, error) {
	return Guarded(v)
}

// PanicFree touches internal code that provably cannot panic.
// boundary-reach requires an actual reachable panic site and stays quiet.
func PanicFree(v int) (int, error) {
	return fixpanic.Safe(v), nil
}

// NoError reaches the panic site but returns no error — accessors outside
// the error-returning contract are not flagged.
func NoError(v int) int {
	return boundhelper.Route(v)
}
