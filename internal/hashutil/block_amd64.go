//go:build !purego

package hashutil

// vectorMurmur is decided once, from the CPU's own feature bits.
var vectorMurmur = hasAVX2()

// VectorMurmur reports whether MurmurBlock runs its AVX2 kernel on this
// machine. A caller whose per-key loop only pays off with the kernel (see
// internal/cpupart) keeps its inline hash when it reports false.
func VectorMurmur() bool { return vectorMurmur }

// murmurVector hashes the longest prefix of src whose length is a multiple
// of eight with the AVX2 kernel and returns that length: 0 without AVX2.
//
//fpgavet:hotpath
func murmurVector(dst []uint32, src []uint64, salt, mask uint32) int {
	n := len(src) &^ 7
	if !vectorMurmur || n == 0 {
		return 0
	}
	_ = dst[n-1]
	murmurAVX2(&dst[0], &src[0], n, salt, mask)
	return n
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state:
// CPUID leaf 1 ECX bits 27 and 28 (OSXSAVE, AVX), XCR0 bits 1 and 2 (SSE
// and AVX state), and CPUID leaf 7 EBX bit 5 (AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// murmurAVX2 writes the masked, salted murmur hash of the keys of the n
// tuples at src to the n words at dst, eight per iteration; n must be a
// positive multiple of eight.
//
//go:noescape
func murmurAVX2(dst *uint32, src *uint64, n int, salt, mask uint32)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX = 0 and returns XCR0.
func xgetbv() (eax, edx uint32)
