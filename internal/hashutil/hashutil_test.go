package hashutil

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMurmur32FinalizerKnownValues(t *testing.T) {
	// fmix32 maps 0 to 0 (all steps are xor/multiply) and is deterministic.
	if got := Murmur32Finalizer(0); got != 0 {
		t.Errorf("Murmur32Finalizer(0) = %#x, want 0", got)
	}
	// Determinism.
	for i := 0; i < 100; i++ {
		k := rand.Uint32()
		if Murmur32Finalizer(k) != Murmur32Finalizer(k) {
			t.Fatalf("finalizer not deterministic for %#x", k)
		}
	}
}

func TestMurmur32FinalizerBijective(t *testing.T) {
	// fmix32 is a bijection on uint32 (xorshift and odd-multiply steps are
	// each invertible). Check injectivity on a dense sample.
	seen := make(map[uint32]uint32, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		h := Murmur32Finalizer(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: %d and %d both hash to %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func TestMurmur64FinalizerBijectiveSample(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<15)
	for i := uint64(0); i < 1<<15; i++ {
		h := Murmur64Finalizer(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: %d and %d both hash to %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func TestAvalanche32(t *testing.T) {
	// Flipping one input bit should flip close to half the output bits on
	// average (avalanche property that makes murmur "robust" per Richter et
	// al.). We allow a generous band since this is a statistical property.
	const trials = 2000
	rng := rand.New(rand.NewSource(1))
	var total, count float64
	for i := 0; i < trials; i++ {
		k := rng.Uint32()
		bit := uint(rng.Intn(32))
		d := Murmur32Finalizer(k) ^ Murmur32Finalizer(k^(1<<bit))
		total += float64(bits.OnesCount32(d))
		count++
	}
	avg := total / count
	if avg < 12 || avg > 20 {
		t.Errorf("avalanche average = %.2f flipped bits, want ~16 (12..20)", avg)
	}
}

func TestRadixBits(t *testing.T) {
	cases := []struct {
		key  uint32
		n    uint
		want uint32
	}{
		{0xffffffff, 0, 0},
		{0xffffffff, 1, 1},
		{0xffffffff, 13, 0x1fff},
		{0x12345678, 8, 0x78},
		{0x12345678, 32, 0x12345678},
		{0x12345678, 40, 0x12345678},
	}
	for _, c := range cases {
		if got := RadixBits(c.key, c.n); got != c.want {
			t.Errorf("RadixBits(%#x, %d) = %#x, want %#x", c.key, c.n, got, c.want)
		}
	}
}

func TestPartitionIndexInRange(t *testing.T) {
	f := func(key uint32) bool {
		const bits = 13 // 8192 partitions, the paper's default fan-out
		r := PartitionIndex32(key, bits, false)
		h := PartitionIndex32(key, bits, true)
		return r < 8192 && h < 8192
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionIndexRadixMatchesLSBs(t *testing.T) {
	f := func(key uint32) bool {
		return PartitionIndex32(key, 13, false) == key&0x1fff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {8192, 13}, {1 << 20, 20}}
	for _, c := range cases {
		if got := Log2(c.n); got != c.want {
			t.Errorf("Log2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8192, 1 << 30} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, -8, 3, 6, 8191} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true, want false", n)
		}
	}
}
