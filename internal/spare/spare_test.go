package spare

import "testing"

// TestTakeFitsAndPutKeepsTheLarger: Take hands out the smallest buffer that
// fits and allocates exactly what is asked when none does; Put keeps the two
// largest buffers it has seen.
func TestTakeFitsAndPutKeepsTheLarger(t *testing.T) {
	var b Buffers[uint64]
	if s := b.Take(5); len(s) != 5 || cap(s) != 5 {
		t.Fatalf("empty: Take(5) = len %d cap %d, want a new buffer of exactly 5", len(s), cap(s))
	}
	small, large := make([]uint64, 8), make([]uint64, 32)
	b.Put(large)
	b.Put(small)
	b.Put(make([]uint64, 4)) // smaller than both: dropped
	if s := b.Take(6); cap(s) != 8 || len(s) != 6 {
		t.Fatalf("Take(6) = len %d cap %d, want the 8-element buffer resliced to 6", len(s), cap(s))
	}
	if s := b.Take(6); cap(s) != 32 {
		t.Fatalf("second Take(6) got cap %d, want the 32-element buffer", cap(s))
	}
	if s := b.Take(1); cap(s) != 1 {
		t.Fatalf("Take(1) with nothing kept got cap %d, want a new buffer", cap(s))
	}
	b.Put(small)
	b.Put(large)
	b.Put(make([]uint64, 16)) // replaces the 8
	if s := b.Take(40); cap(s) != 40 {
		t.Fatalf("Take(40) got cap %d: no kept buffer fits, want a new one of 40", cap(s))
	}
	if s := b.Take(9); cap(s) != 16 {
		t.Fatalf("Take(9) got cap %d, want the 16 that replaced the 8", cap(s))
	}
}
