// Package hashutil provides the hash functions used by the partitioners.
//
// The paper (Section 3.2, following Richter et al.) distinguishes cheap but
// fragile radix-bit "hashing" from robust hash functions such as murmur
// hashing. The FPGA circuit implements the 32-bit murmur3 finalizer as a
// five-stage pipeline (Code 3); this package provides the identical function
// in software so that the CPU baseline, the FPGA simulator, and the tests all
// agree bit-for-bit on partition assignment.
package hashutil

// Murmur32Finalizer is the 32-bit murmur3 finalizer (fmix32), the exact
// computation synthesized in the FPGA hash function module (Code 3 of the
// paper) for 4-byte keys. It has full avalanche behaviour: every input bit
// affects every output bit with probability close to 1/2.
func Murmur32Finalizer(key uint32) uint32 {
	key ^= key >> 16
	key *= 0x85ebca6b
	key ^= key >> 13
	key *= 0xc2b2ae35
	key ^= key >> 16
	return key
}

// Murmur64Finalizer is the 64-bit murmur3 finalizer (fmix64), used for
// 8-byte keys in the wider-tuple configurations of the circuit (Section 4.4:
// hashing 8 B keys needs more multiplier DSP blocks but the same latency
// structure).
func Murmur64Finalizer(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return key
}

// SplitMix64 is splitmix64's finalizer, the project-wide seeded derivation
// hash: scheduler tie-breaks, shard seeds, fault draws and trace ids are all
// chains of it, so they stay pure functions of (seed, index).
func SplitMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RadixBits extracts the n least significant bits of the key — the
// "partitioning attribute" of radix partitioning. It is the do_hash == 0
// branch of Code 3.
func RadixBits(key uint32, n uint) uint32 {
	if n >= 32 {
		return key
	}
	return key & ((1 << n) - 1)
}

// PartitionIndex32 maps a 4-byte key to a partition in [0, numPartitions)
// using the given attribute function. numPartitions must be a power of two;
// the partition is the low bits of the hashed (or raw) key, exactly as the
// circuit takes "N LSBs" in Code 3.
func PartitionIndex32(key uint32, radixBits uint, hash bool) uint32 {
	if hash {
		return RadixBits(Murmur32Finalizer(key), radixBits)
	}
	return RadixBits(key, radixBits)
}

// Log2 returns floor(log2(n)) for n ≥ 1. It is the radix-bit count for a
// power-of-two partition fan-out.
func Log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// IsPowerOfTwo reports whether n is a positive power of two. Partition
// fan-outs must be powers of two so that "take N LSBs" addresses exactly the
// partition range.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}
