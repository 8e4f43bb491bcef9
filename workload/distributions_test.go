package workload

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestGridKeyBytesInRange(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		k := GridKey(i)
		for b := 0; b < 4; b++ {
			v := (k >> (8 * b)) & 0xff
			if v < 1 || v > 128 {
				t.Fatalf("GridKey(%d) byte %d = %d, want 1..128", i, b, v)
			}
		}
	}
}

func TestGridKeyLSBIncrementsFirst(t *testing.T) {
	// The least significant byte cycles 1..128 before the next byte bumps.
	if GridKey(0) != 0x01010101 {
		t.Errorf("GridKey(0) = %#x, want 0x01010101", GridKey(0))
	}
	if GridKey(1)&0xff != 2 {
		t.Errorf("GridKey(1) LSB = %d, want 2", GridKey(1)&0xff)
	}
	if GridKey(127)&0xff != 128 {
		t.Errorf("GridKey(127) LSB = %d, want 128", GridKey(127)&0xff)
	}
	k := GridKey(128)
	if k&0xff != 1 || (k>>8)&0xff != 2 {
		t.Errorf("GridKey(128) = %#x, want LSB reset to 1 and next byte 2", k)
	}
}

func TestReverseGridKeyMSBIncrementsFirst(t *testing.T) {
	if ReverseGridKey(0) != 0x01010101 {
		t.Errorf("ReverseGridKey(0) = %#x", ReverseGridKey(0))
	}
	k := ReverseGridKey(1)
	if k>>24 != 2 {
		t.Errorf("ReverseGridKey(1) MSB = %d, want 2", k>>24)
	}
	k = ReverseGridKey(128)
	if k>>24 != 1 || (k>>16)&0xff != 2 {
		t.Errorf("ReverseGridKey(128) = %#x, want MSB reset and next byte 2", k)
	}
}

func TestGridKeysUnique(t *testing.T) {
	const n = 1 << 15
	seen := make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		k := GridKey(i)
		if seen[k] {
			t.Fatalf("GridKey repeats at %d: %#x", i, k)
		}
		seen[k] = true
	}
}

func TestLinearKeysUniqueAndShuffled(t *testing.T) {
	g := NewGenerator(7)
	keys := make([]uint32, 10000)
	if err := g.Keys(Linear, keys); err != nil {
		t.Fatal(err)
	}
	sorted := append([]uint32(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, k := range sorted {
		if k != uint32(i+1) {
			t.Fatalf("linear keys are not a permutation of 1..N: position %d has %d", i, k)
		}
	}
	// Shuffled: the identity ordering would be astronomically unlikely.
	inOrder := 0
	for i, k := range keys {
		if k == uint32(i+1) {
			inOrder++
		}
	}
	if inOrder > len(keys)/10 {
		t.Errorf("linear keys look unshuffled: %d of %d in place", inOrder, len(keys))
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, d := range []Distribution{Linear, Random, Grid, ReverseGrid} {
		a := make([]uint32, 1000)
		b := make([]uint32, 1000)
		if err := NewGenerator(42).Keys(d, a); err != nil {
			t.Fatal(err)
		}
		if err := NewGenerator(42).Keys(d, b); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: same seed produced different keys at %d", d, i)
			}
		}
	}
}

func TestKeysRejectsZipf(t *testing.T) {
	g := NewGenerator(1)
	if err := g.Keys(Zipf, make([]uint32, 4)); err == nil {
		t.Error("Keys(Zipf) succeeded, want error (use ZipfRelation)")
	}
}

func TestDistributionString(t *testing.T) {
	want := map[Distribution]string{
		Linear: "linear", Random: "random", Grid: "grid",
		ReverseGrid: "reverse-grid", Zipf: "zipf",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

func TestZipfUniformWhenFactorZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z, err := NewZipfGenerator(rng, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 101)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 1 || v > 100 {
			t.Fatalf("Zipf(0) sample %d out of range", v)
		}
		counts[v]++
	}
	// Every value should appear close to n/100 times.
	for v := 1; v <= 100; v++ {
		got := float64(counts[v])
		if got < 0.7*n/100 || got > 1.3*n/100 {
			t.Errorf("Zipf(0) count[%d] = %d, want ~%d", v, counts[v], n/100)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	frac := func(s float64) float64 {
		z, err := NewZipfGenerator(rng, s, 10000)
		if err != nil {
			t.Fatal(err)
		}
		top := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if z.Next() <= 10 {
				top++
			}
		}
		return float64(top) / n
	}
	f05, f10, f175 := frac(0.5), frac(1.0), frac(1.75)
	if !(f05 < f10 && f10 < f175) {
		t.Errorf("top-10 mass should grow with skew: %.3f %.3f %.3f", f05, f10, f175)
	}
	if f175 < 0.8 {
		t.Errorf("Zipf(1.75) top-10 mass = %.3f, want > 0.8", f175)
	}
}

func TestZipfMatchesTheoreticalFrequencies(t *testing.T) {
	// For s = 1 over a small alphabet, empirical frequencies must track
	// 1/k / H_n within a few percent.
	rng := rand.New(rand.NewSource(5))
	const alphabet = 8
	z, err := NewZipfGenerator(rng, 1, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	var hn float64
	for k := 1; k <= alphabet; k++ {
		hn += 1 / float64(k)
	}
	counts := make([]int, alphabet+1)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for k := 1; k <= alphabet; k++ {
		want := 1 / float64(k) / hn
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("Zipf(1) P(%d) = %.4f, want %.4f", k, got, want)
		}
	}
}

func TestZipfRejectsBadParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewZipfGenerator(rng, -0.5, 10); err == nil {
		t.Error("negative exponent accepted")
	}
	if _, err := NewZipfGenerator(rng, 1, 0); err == nil {
		t.Error("empty alphabet accepted")
	}
	if _, err := NewZipfGenerator(rng, math.NaN(), 10); err == nil {
		t.Error("NaN exponent accepted")
	}
}

func TestZipfSingletonAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z, err := NewZipfGenerator(rng, 1.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if z.Next() != 1 {
			t.Fatal("singleton alphabet must always return 1")
		}
	}
}

// TestGeneratorsRejectNegativeCount: every generator returns NewRelation's
// error for a negative tuple count instead of allocating first.
func TestGeneratorsRejectNegativeCount(t *testing.T) {
	g := NewGenerator(1)
	for _, c := range []struct {
		name string
		gen  func() (*Relation, error)
	}{
		{"linear", func() (*Relation, error) { return g.Relation(Linear, 8, -5) }},
		{"random", func() (*Relation, error) { return g.Relation(Random, 8, -5) }},
		{"grid", func() (*Relation, error) { return g.Relation(Grid, 16, -5) }},
		{"revgrid", func() (*Relation, error) { return g.Relation(ReverseGrid, 8, -1) }},
		{"zipf", func() (*Relation, error) { return g.ZipfRelation(1, 100, 8, -5) }},
		{"zipf, bad alphabet too", func() (*Relation, error) { return g.ZipfRelation(1, -5, 8, -5) }},
	} {
		if rel, err := c.gen(); err == nil || !strings.Contains(err.Error(), "workload: negative tuple count -") {
			t.Errorf("%s: %v, %v; want the negative tuple count error", c.name, rel, err)
		}
	}
}
