// Package spare keeps the buffers of released partitioner results for the
// partitioner's next calls, as the paper's partitioners write into shared
// memory allocated once at start-up (Section 2.1). It keeps two, because a
// join releases two results: its build and its probe side.
package spare

// Buffers keeps up to two released buffers; the zero value keeps none. It
// is not safe for concurrent use.
type Buffers[T any] [2][]T

// Take returns the smallest kept buffer of at least n elements, resliced to
// n and no longer kept, or else a new buffer of exactly n elements: a fresh
// allocation is never rounded up. A kept buffer holds what it held; a caller
// that needs zeroes clears it.
func (b *Buffers[T]) Take(n int) []T {
	best := -1
	for i, s := range b {
		if s != nil && cap(s) >= n && (best < 0 || cap(s) < cap(b[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	s := b[best][:n]
	b[best] = nil
	return s
}

// Put keeps s in place of an empty slot or of the smaller kept buffer, if s
// is larger; otherwise it drops s.
func (b *Buffers[T]) Put(s []T) {
	i := 0
	if cap(b[1]) < cap(b[0]) {
		i = 1
	}
	if cap(s) > cap(b[i]) {
		b[i] = s
	}
}
