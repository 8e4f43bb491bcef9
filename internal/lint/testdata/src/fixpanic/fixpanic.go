// Package fixpanic stands in for the simulator internals in the
// boundary-reach fixtures. The tests load it under the synthetic import path
// fpgapart/internal/fixpanic, so its panic site counts as an internal/*
// panic for the reachability analysis.
package fixpanic

// Checked panics on invariant violation, like the real internal
// constructors.
func Checked(v int) int {
	if v < 0 {
		panic("fixpanic: negative input")
	}
	return v * 2
}

// Safe provably cannot panic — exported APIs reaching only this helper need
// no recover guard under boundary-reach.
func Safe(v int) int { return v + 1 }
