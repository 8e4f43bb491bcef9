// Package boundfix is the known-bad fixture for the boundary-reach
// analyzer. The tests configure it as a boundary package; it reaches the
// internal panic site in fpgapart/internal/fixpanic only THROUGH the
// sibling package boundhelper, so every flagged function here is invisible
// to a per-package call scan — the gap the call-graph engine exists to
// close. The Spawns* functions are guarded themselves and start goroutines,
// which recover in the function that starts them never covers.
package boundfix

import (
	"errors"
	"fmt"
	"sync"

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

// guard is the package's panic guard, deferred with a named error return.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrSimulatorFault, r)
	}
}

// SpawnsUnguarded is guarded, but the goroutine it starts is not: a panic on
// that goroutine ends the process before any recover of this frame runs.
func SpawnsUnguarded(v int) (out int, err error) {
	defer guard(&err)
	done := make(chan int)
	go func() { // want boundary-reach
		done <- boundhelper.Route(v)
	}()
	return <-done, nil
}

// SpawnsNamed starts a named function, whose body is the goroutine's and
// has no guard either.
func SpawnsNamed(v int) (err error) {
	defer guard(&err)
	go route(v) // want boundary-reach
	return nil
}

func route(v int) { boundhelper.Route(v) }

// SpawnsGuarded is the shape that passes: the goroutine carries its own
// guard, which hands the fault to the spawner through err.
func SpawnsGuarded(v int) (out int, err error) {
	defer guard(&err)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer guard(&err)
		out = boundhelper.Route(v)
	}()
	wg.Wait()
	return out, err
}
