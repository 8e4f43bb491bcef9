package hashutil

// MurmurBlock writes the partition index of every packed 8-byte tuple of
// src — the low 32 bits (the key) XOR salt, murmur-finalized, masked:
// Murmur32Finalizer(uint32(t)^salt) & mask — into dst[:len(src)]; dst must
// be at least as long as src. When VectorMurmur reports true it hashes eight
// keys per instruction and only a tail of fewer than eight in the scalar
// loop; elsewhere, and under -tags purego, it is the scalar loop throughout.
// The output is the same either way.
//
//fpgavet:hotpath
func MurmurBlock(dst []uint32, src []uint64, salt, mask uint32) {
	n := murmurVector(dst, src, salt, mask)
	murmurScalar(dst[n:], src[n:], salt, mask)
}

// murmurScalar is MurmurBlock one key at a time.
//
//fpgavet:hotpath
func murmurScalar(dst []uint32, src []uint64, salt, mask uint32) {
	dst = dst[:len(src)]
	for i, t := range src {
		dst[i] = Murmur32Finalizer(uint32(t)^salt) & mask
	}
}
