//go:build !amd64 || purego

package cpupart

// storeLine is the portable flush: one ordinary 64-byte store.
func storeLine(dst, src *[BufferTuples]uint64) { *dst = *src }

// storeFence is a no-op: ordinary stores are ordered by the worker hand-off.
func storeFence() {}
