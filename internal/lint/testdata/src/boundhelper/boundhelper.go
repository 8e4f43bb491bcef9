// Package boundhelper is the sibling helper package of the boundary-reach
// fixture: a non-boundary, non-internal package forwarding into the
// panic-capable internals. It adds the extra call-graph hop that a
// per-package call scan cannot follow.
package boundhelper

import "fpgapart/internal/fixpanic"

// Route forwards into the panic-capable internals.
func Route(v int) int { return fixpanic.Checked(v) }

// Pure never touches the internals.
func Pure(v int) int { return v + 2 }
