package workload

import (
	"fmt"
	"math/rand"
)

// Distribution identifies one of the four key distributions of Section 3.2
// (following Richter et al.), plus Zipf skew used in Section 5.4.
type Distribution int

const (
	// Linear: unique keys in [1, N].
	Linear Distribution = iota
	// Random: pseudo-random keys over the full 32-bit range (duplicates
	// possible, as with the C rand() generation in the paper).
	Random
	// Grid: every byte of the 4-byte key takes a value in [1, 128]; the
	// least significant byte increments first. Resembles address patterns
	// and short strings.
	Grid
	// ReverseGrid: like Grid, but the most significant byte increments
	// first.
	ReverseGrid
	// Zipf: keys drawn from [1, alphabet] with Zipf-distributed frequency.
	Zipf
)

func (d Distribution) String() string {
	switch d {
	case Linear:
		return "linear"
	case Random:
		return "random"
	case Grid:
		return "grid"
	case ReverseGrid:
		return "reverse-grid"
	case Zipf:
		return "zipf"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// GridKey returns the i-th key (0-based) of the grid distribution: a base-128
// counter over the 4 key bytes, each byte in [1, 128], least significant byte
// fastest.
func GridKey(i int) uint32 {
	var key uint32
	for b := 0; b < 4; b++ {
		digit := uint32(i%128) + 1 // each byte cycles through 1..128
		key |= digit << (8 * b)
		i /= 128
	}
	return key
}

// ReverseGridKey is GridKey with the most significant byte incrementing
// first.
func ReverseGridKey(i int) uint32 {
	var key uint32
	for b := 3; b >= 0; b-- {
		digit := uint32(i%128) + 1
		key |= digit << (8 * b)
		i /= 128
	}
	return key
}

// Generator produces relations with a given key distribution. It is
// deterministic for a given seed so experiments are reproducible.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a Generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Seed restarts the generator at seed: it then draws what
// NewGenerator(seed) would, without building a new source.
func (g *Generator) Seed(seed int64) { g.rng.Seed(seed) }

// Keys fills out with n keys drawn from the distribution. For Zipf, use
// ZipfKeys which takes the skew parameters.
func (g *Generator) Keys(d Distribution, out []uint32) error {
	n := len(out)
	switch d {
	case Linear:
		for i := range out {
			out[i] = uint32(i + 1)
		}
		// The paper partitions unsorted relations; shuffle so that the
		// linear keys do not arrive in partition order.
		g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	case Random:
		for i := range out {
			out[i] = g.rng.Uint32()
		}
	case Grid:
		for i := range out {
			out[i] = GridKey(i)
		}
		g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	case ReverseGrid:
		for i := range out {
			out[i] = ReverseGridKey(i)
		}
		g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	default:
		return fmt.Errorf("workload: Keys does not support distribution %v", d)
	}
	return nil
}

// Relation generates a row-layout relation of n tuples of the given width
// whose keys follow distribution d. Payloads are the tuple index, which lets
// tests verify that partitioning preserved <key, payload> pairs.
func (g *Generator) Relation(d Distribution, width, n int) (*Relation, error) {
	keys := make([]uint32, n)
	if err := g.Keys(d, keys); err != nil {
		return nil, err
	}
	return FromKeys(keys, width)
}

// ZipfRelation generates a relation whose keys are Zipf-distributed over an
// alphabet of distinct keys [1, alphabet] with the given skew factor
// (Section 5.4 skews relation S with factors 0.25–1.75).
func (g *Generator) ZipfRelation(factor float64, alphabet, width, n int) (*Relation, error) {
	z, err := NewZipfGenerator(g.rng, factor, alphabet)
	if err != nil {
		return nil, err
	}
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(z.Next()) // already in [1, alphabet]
	}
	return FromKeys(keys, width)
}

// FromKeys builds a row-layout relation of the given tuple width from a key
// slice; payload of tuple i is i.
func FromKeys(keys []uint32, width int) (*Relation, error) {
	r, err := NewRelation(RowLayout, width, len(keys))
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		r.SetTuple(i, k, uint32(i))
	}
	return r, nil
}
