package hashutil

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// blockReference is MurmurBlock spelled out with the finalizer the circuit
// and every partitioner share.
func blockReference(src []uint64, salt, mask uint32) []uint32 {
	want := make([]uint32, len(src))
	for i, t := range src {
		want[i] = Murmur32Finalizer(uint32(t)^salt) & mask
	}
	return want
}

// checkBlock runs one block function on src and holds it to the reference.
// dst is one word longer than src, and that word must survive.
func checkBlock(t *testing.T, name string, block func(dst []uint32, src []uint64, salt, mask uint32), src []uint64, salt, mask uint32) {
	t.Helper()
	const guard = 0xA5A5A5A5
	dst := make([]uint32, len(src)+1)
	dst[len(src)] = guard
	block(dst, src, salt, mask)
	for i, w := range blockReference(src, salt, mask) {
		if dst[i] != w {
			t.Fatalf("%s: %d keys, salt %#x, mask %#x: dst[%d] = %#x, want %#x", name, len(src), salt, mask, i, dst[i], w)
		}
	}
	if dst[len(src)] != guard {
		t.Fatalf("%s: %d keys: wrote past the block", name, len(src))
	}
}

// TestMurmurBlockMatchesFinalizer holds MurmurBlock — the AVX2 kernel where
// the CPU has it — and the scalar loop to the finalizer over every length
// up to two 256-tuple blocks and then some, sources starting at odd word
// offsets (unaligned vector loads), random salts and the masks of 2, 256
// and 8192 partitions and of none.
func TestMurmurBlockMatchesFinalizer(t *testing.T) {
	t.Logf("VectorMurmur() = %v", VectorMurmur())
	rng := rand.New(rand.NewSource(34))
	backing := make([]uint64, 2*256+9+3)
	for i := range backing {
		backing[i] = rng.Uint64()
	}
	for _, mask := range []uint32{1, 255, 8191, 1<<32 - 1} {
		for off := 0; off <= 3; off++ {
			for n := 0; n <= 2*256+9; n++ {
				src := backing[off : off+n]
				salt := rng.Uint32()
				if n%5 == 0 {
					salt = 0
				}
				checkBlock(t, "MurmurBlock", MurmurBlock, src, salt, mask)
				checkBlock(t, "murmurScalar", murmurScalar, src, salt, mask)
			}
		}
	}
}

// FuzzMurmurBlock holds MurmurBlock to the scalar finalizer on arbitrary
// tuples, salts, masks and source offsets.
func FuzzMurmurBlock(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(8191), uint8(0))
	f.Add(make([]byte, 8*17), uint32(0x9E3779B9), uint32(255), uint8(1))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef!"), uint32(1), uint32(1<<32-1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, salt, mask uint32, off uint8) {
		src := make([]uint64, len(data)/8)
		for i := range src {
			src[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		src = src[min(int(off%8), len(src)):]
		checkBlock(t, "MurmurBlock", MurmurBlock, src, salt, mask)
	})
}
