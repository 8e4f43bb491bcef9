// Package membudget models the bounded join memory of a robust hybrid hash
// join (Jahangiri et al., "Design Trade-offs for a Robust Dynamic Hybrid
// Hash Join"): a Budget is the byte cap the join's decisions are made
// against, and a SpillStore accounts what later passes read back of the
// partitions that did not fit. What each decision reserves, and the
// high-water mark of those reservations, is joincore's fold over its
// decision log. Both types are pure accounting — no clocks, no randomness —
// so same-seed runs make byte-identical decisions; the package sits on the
// fpgavet deterministic path.
package membudget

// Budget is a fixed byte cap, a value: the zero Budget (or a cap ≤ 0) is
// unlimited, so call sites need no branching between budgeted and
// unbudgeted runs.
type Budget struct {
	capBytes int64
}

// New returns a budget capped at capBytes; capBytes ≤ 0 means unlimited.
func New(capBytes int64) Budget {
	return Budget{capBytes: max(capBytes, 0)}
}

// Cap returns the byte cap; 0 means unlimited.
func (b Budget) Cap() int64 { return b.capBytes }

// Limited reports whether the budget actually constrains allocations.
func (b Budget) Limited() bool { return b.capBytes > 0 }

// SpillStore accounts the read side of the simulated spill device: the
// bytes a recursing or broadcasting pass reads back of a partition that
// exceeded the budget. It is pure bookkeeping and nil-safe: a nil store
// discards what it is told.
type SpillStore struct {
	read int64
}

// Read accounts n bytes read back from the store.
func (s *SpillStore) Read(n int64) {
	if s == nil {
		return
	}
	s.read += n
}
