//go:build !purego

package core

// prefetch asks for the cache line at p (PREFETCHT0) without waiting for it:
// the simulator knows which bank line a tuple and which output line a cache
// line will touch several cycles before it touches them. A hint with no
// architectural effect — no simulated number can depend on it — and no
// memory access, so there is nothing for the race detector to see.
//
//go:noescape
func prefetch(p *uint64)
