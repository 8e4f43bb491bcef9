//go:build !purego

package cpupart

// storeLine copies the cache line *src to *dst with four non-temporal 16-byte
// stores (SSE2 MOVNTDQ, present on every amd64): the line is written through
// a write-combining buffer without being read into the cache first. dst must
// be 16-byte aligned; buffers.flush only passes 64-byte-aligned lines.
//
//go:noescape
func storeLine(dst, src *[BufferTuples]uint64)

// storeFence (SFENCE) orders the calling thread's earlier streaming stores,
// which are weakly ordered, before everything it does next: each worker ends
// with it, ahead of the hand-off that publishes its output. Assembly is not
// instrumented, so the race detector cannot see storeLine's writes: -race
// checks the hand-off around the kernel, this fence covers the kernel.
func storeFence()
