// Package determfix is a known-bad fixture for the determinism analyzer:
// every `// want <analyzer>` comment marks a line the analyzer must flag.
// The fixture is loaded under a synthetic deterministic-path import path by
// the tests; it never builds as part of the module.
package determfix

import (
	"math/rand"
	"sort"
	"time"
)

// Ticker is a clocked component whose tick samples the wall clock — the
// canonical way host time leaks into a cycle model.
type Ticker struct {
	Cycles int64
	Stamp  int64
}

// Tick advances one simulated cycle but reads the host clock while doing so.
func (t *Ticker) Tick() {
	t.Cycles++
	t.Stamp = time.Now().UnixNano() // want determinism
}

// Checksum folds per-partition counts by ranging over the map: the multiset
// value is stable, but any order-sensitive derivation from the same loop
// (first-mismatch reporting, piece ordering) silently differs per run.
func Checksum(counts map[uint32]int64) uint64 {
	var h uint64
	for k, n := range counts { // want determinism
		h = h*1099511628211 + uint64(k) ^ uint64(n)
	}
	return h
}

// Jitter draws from the unseeded global math/rand source.
func Jitter() float64 {
	return rand.Float64() // want determinism
}

// Backoff is a second global-source draw, of a different function.
func Backoff(n int) int {
	return rand.Intn(n) // want determinism
}

// SeededOK derives randomness from an explicitly seeded generator; methods
// of *rand.Rand are deterministic given the seed and must not be flagged.
func SeededOK(seed int64, n int) int {
	return rand.New(rand.NewSource(seed)).Intn(n)
}

// SortedOK shows the approved pattern — collect keys, sort, then iterate —
// and the escape hatch on the collection loop.
func SortedOK(counts map[uint32]int64) uint64 {
	keys := make([]uint32, 0, len(counts))
	for k := range counts { //fpgavet:allow determinism keys are sorted before use
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var h uint64
	for _, k := range keys {
		h = h*1099511628211 + uint64(k) ^ uint64(counts[k])
	}
	return h
}

// ElapsedOK does time.Duration arithmetic — simulated time is expressed in
// Duration, so types and constants from package time are fine.
func ElapsedOK(cycles int64, clockHz float64) time.Duration {
	return time.Duration(float64(cycles) / clockHz * float64(time.Second))
}
