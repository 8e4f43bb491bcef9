//go:build !amd64 || purego

package hashutil

// VectorMurmur reports false: off amd64, and under -tags purego,
// MurmurBlock is the scalar loop.
func VectorMurmur() bool { return false }

// murmurVector hashes nothing; MurmurBlock's scalar loop does it all.
func murmurVector(dst []uint32, src []uint64, salt, mask uint32) int { return 0 }
