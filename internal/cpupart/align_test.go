package cpupart

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The buffered flush has three cases the tuple-at-a-time scatter does not —
// a head fragment written with ordinary stores when a worker's range in a
// partition starts mid-cache-line, whole streamed lines, and a tail fragment
// — and which case a tuple takes depends on the destination *address*, the
// partition sizes and where the thread boundaries fall. These tests walk
// that space and require Buffered ≡ Naive element for element.

// runBuffered calls Code 2 below the public entry points: with exactly
// threads workers (PartitionTuples clamps them on small inputs) and a
// destination that begins skew words past whatever alignment make returns,
// so that skew 0…7 covers every line offset. Every call works in the same
// Scratch, so each also runs on the stale cursors and buffer lines of a call
// with another length, fan-out, thread count and alignment.
func runBuffered(src []uint64, cfg Config, threads, skew int) *Result {
	return runIndexer(src, cfg.indexer(), threads, skew)
}

// runIndexer is runBuffered with the indexer given, so a test can pick the
// hash loops (ix.block) that Config.indexer would not pick on this machine.
func runIndexer(src []uint64, ix indexer, threads, skew int) *Result {
	res := &Result{NumPartitions: ix.parts(), Data: make([]uint64, len(src)+skew)[skew:], Offsets: make([]int64, ix.parts()+1)}
	buffered(src, res.Data, res.Offsets, threads, ix, &alignScratch)
	return res
}

var alignScratch Scratch

func naiveReference(t *testing.T, src []uint64, cfg Config) *Result {
	t.Helper()
	cfg.Algorithm, cfg.Threads = Naive, 1
	want, err := PartitionTuples(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &want
}

func requireIdentical(t *testing.T, what string, want, got *Result) {
	t.Helper()
	if !slices.Equal(got.Offsets, want.Offsets) {
		t.Fatalf("%s: Offsets differ from naive", what)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d tuples out, naive emits %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: Data[%d] = %#x, naive has %#x", what, i, got.Data[i], want.Data[i])
		}
	}
}

// keyPerPartition returns, for every partition of cfg, one key that maps to
// it (found by scanning — hash partitioning has no cheaper preimage).
func keyPerPartition(cfg Config) []uint32 {
	ix := cfg.indexer()
	keys := make([]uint32, cfg.NumPartitions)
	found := make([]bool, cfg.NumPartitions)
	for k, missing := uint32(0), cfg.NumPartitions; missing > 0; k++ {
		if q := ix.of(uint64(k)); !found[q] {
			keys[q], found[q] = k, true
			missing--
		}
	}
	return keys
}

// tuples packs keys with their position as payload, so equal keys stay
// distinguishable and a reordering inside a partition is visible.
func tuples(keys []uint32) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = uint64(i)<<32 | uint64(k)
	}
	return out
}

var alignModes = []Config{
	{Hash: false, Salt: 0x2545F491},
	{Hash: true, Salt: 0x9E3779B9},
}

func TestBufferedMatchesNaiveAtEveryLengthAndAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, parts := range []int{2, 8, 256, 8192} {
		// Every n up to 130; at fan-out 8192, where a run is mostly scratch
		// set-up, every seventh (7 is coprime to the line's 8 words).
		var sizes []int
		for n := 0; n <= 130; n += 1 + 6*(parts/8192) {
			sizes = append(sizes, n)
		}
		for n := 8*parts - 9; n <= 8*parts+9 && parts > 8; n++ {
			sizes = append(sizes, n)
		}
		for _, cfg := range alignModes {
			cfg.NumPartitions = parts
			for _, n := range sizes {
				// One partition takes everything, so that with w workers the
				// thread boundaries n·i/w fall at every residue mod 8 inside
				// it; and a small key pool spreading tuples unevenly.
				single, spread := make([]uint32, n), make([]uint32, n)
				for i := range spread {
					single[i] = 0xC0FFEE
					spread[i] = uint32(rng.Intn(3*parts/2 + 1))
				}
				for shape, keys := range [][]uint32{single, spread} {
					src := tuples(keys)
					want := naiveReference(t, src, cfg)
					for _, threads := range []int{1, 2, 3, 7} {
						skews := []int{(n + threads) % 8}
						if parts <= 8 {
							skews = []int{0, 1, 2, 3, 4, 5, 6, 7}
						}
						for _, skew := range skews {
							what := fmt.Sprintf("parts %d hash %v shape %d n %d threads %d skew %d", parts, cfg.Hash, shape, n, threads, skew)
							requireIdentical(t, what, want, runBuffered(src, cfg, threads, skew))
						}
					}
				}
			}
		}
	}
}

// TestBlockedHashMatchesInline runs Buffered's hash mode through both of
// its loop pairs — blocked (partition indices a block ahead, from
// hashutil.MurmurBlock) and inline — whichever of the two Config.indexer
// picks on this machine, and holds each to the naive reference: salts other
// than 0, one and two workers, lengths around the 256-tuple block.
func TestBlockedHashMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, parts := range []int{2, 256, 8192} {
		for _, salt := range []uint32{1, 0x2545F491, 0x9E3779B9} {
			cfg := Config{NumPartitions: parts, Hash: true, Salt: salt}
			for _, n := range []int{1, 7, 255, 256, 257, 2*hashBlock + 9, 8*parts + 3} {
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = rng.Uint32()
				}
				src := tuples(keys)
				want := naiveReference(t, src, cfg)
				for threads := 1; threads <= 2; threads++ {
					for _, block := range []bool{false, true} {
						ix := cfg.indexer()
						ix.block = block
						what := fmt.Sprintf("parts %d salt %#x n %d threads %d block %v", parts, salt, n, threads, block)
						requireIdentical(t, what, want, runIndexer(src, ix, threads, (n+threads)%8))
					}
				}
			}
		}
	}
}

func TestBufferedMatchesNaiveOnLineSizedPartitions(t *testing.T) {
	// Partitions of 0, 1, 7, 8, 9 and 15 tuples: empty, inside one line, one
	// short of a line, exactly a line, a line and one, two lines less one —
	// packed back to back and, over the skews, starting at every line offset.
	pattern := []int{0, 1, 7, 8, 9, 15}
	rng := rand.New(rand.NewSource(31))
	for _, parts := range []int{2, 8, 256, 8192} {
		for _, cfg := range alignModes {
			cfg.NumPartitions = parts
			var keys []uint32
			for q, key := range keyPerPartition(cfg) {
				for i := 0; i < pattern[q%len(pattern)]; i++ {
					keys = append(keys, key)
				}
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			src := tuples(keys)
			want := naiveReference(t, src, cfg)
			for q := 0; q < min(parts, 2*len(pattern)); q++ {
				if got, size := want.Count(q), pattern[q%len(pattern)]; got != int64(size) {
					t.Fatalf("input construction: partition %d holds %d tuples, want %d", q, got, size)
				}
			}
			for _, threads := range []int{1, 2, 3, 7} {
				for skew := 0; skew < 8; skew++ {
					what := fmt.Sprintf("parts %d hash %v threads %d skew %d", parts, cfg.Hash, threads, skew)
					requireIdentical(t, what, want, runBuffered(src, cfg, threads, skew))
				}
			}
		}
	}
}

func TestPartitionTuplesOnUnalignedSource(t *testing.T) {
	// The budgeted join partitions sub-slices of spilled runs: the source
	// may start anywhere, and only the destination's alignment may matter.
	rng := rand.New(rand.NewSource(37))
	keys := make([]uint32, 5000)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	src := tuples(keys)
	for _, cfg := range alignModes {
		for _, cfg.NumPartitions = range []int{2, 8, 256} {
			for k := 0; k <= 8; k++ {
				for _, cfg.Threads = range []int{1, 2, 3, 7} {
					got, err := PartitionTuples(src[k:], cfg)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("src[%d:] parts %d hash %v threads %d", k, cfg.NumPartitions, cfg.Hash, cfg.Threads)
					requireIdentical(t, what, naiveReference(t, src[k:], cfg), &got)
				}
			}
		}
	}
}
