package joincore

import (
	"math/rand"
	"testing"
)

// refSketch is the Misra-Gries summary as it was before the counts moved
// above a base: a miss on a full summary decrements all eight counters in a
// second walk. It is the reference topKSketch is held to.
type refSketch struct {
	keys   [sketchSlots]uint32
	counts [sketchSlots]int64
}

func (s *refSketch) observe(key uint32) {
	free := -1
	for i := 0; i < sketchSlots; i++ {
		if s.counts[i] > 0 && s.keys[i] == key {
			s.counts[i]++
			return
		}
		if s.counts[i] == 0 && free < 0 {
			free = i
		}
	}
	if free >= 0 {
		s.keys[free] = key
		s.counts[free] = 1
		return
	}
	for i := 0; i < sketchSlots; i++ {
		s.counts[i]--
	}
}

func (s *refSketch) top() (key uint32, ok bool) {
	var best int64
	for i := 0; i < sketchSlots; i++ {
		if s.counts[i] > best {
			best = s.counts[i]
			key = s.keys[i]
			ok = true
		}
	}
	return key, ok
}

// TestSketchMatchesDecrementAll: with decrement-all done as base++, the
// sketch holds the same count in every slot after every key — so it picks
// the same free slot, keeps the same candidates and names the same top — as
// the reference, on streams that fill it, drain it and leave it alone.
func TestSketchMatchesDecrementAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<16)
	for _, stream := range []struct {
		name string
		next func(i int) uint32
	}{
		{"uniform", func(int) uint32 { return uint32(rng.Intn(1 << 12)) }},
		{"few keys", func(int) uint32 { return uint32(rng.Intn(12)) }},
		{"zipf", func(int) uint32 { return uint32(zipf.Uint64()) }},
		{"single key", func(int) uint32 { return 42 }},
		{"alternating", func(i int) uint32 { return uint32(i % 2) }},
		// Nine keys in turn: every ninth key finds the summary full.
		{"round robin", func(i int) uint32 { return uint32(i % (sketchSlots + 1)) }},
	} {
		name, next := stream.name, stream.next
		for _, n := range []int{0, 1, 7, 8, 9, 100, 1000, 4096} {
			var got topKSketch
			var want refSketch
			keys := make([]uint64, n)
			for i := range keys {
				key := next(i)
				keys[i] = uint64(key) | uint64(i)<<32
				got.observe(key)
				want.observe(key)
				for slot := range want.counts {
					count := got.counts[slot] - got.base
					if count != want.counts[slot] || got.keys[slot] != want.keys[slot] {
						t.Fatalf("%s, key %d of %d: slot %d holds %d × key %d, reference %d × key %d",
							name, i, n, slot, count, got.keys[slot], want.counts[slot], want.keys[slot])
					}
				}
			}
			gotKey, gotOK := got.top()
			wantKey, wantOK := want.top()
			if gotKey != wantKey || gotOK != wantOK {
				t.Fatalf("%s, %d keys: top = %d/%v, reference %d/%v", name, n, gotKey, gotOK, wantKey, wantOK)
			}
			// heavyHitter confirms the candidate against the stream.
			var exact int64
			for _, tu := range keys {
				if gotOK && uint32(tu) == gotKey {
					exact++
				}
			}
			if key, count := heavyHitter(keys); count != exact || (gotOK && key != gotKey) {
				t.Fatalf("%s, %d keys: heavyHitter = %d × %d, want %d × %d", name, n, key, count, gotKey, exact)
			}
		}
	}
}
