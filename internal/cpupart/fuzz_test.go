package cpupart

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fpgapart/internal/hashutil"
	"fpgapart/workload"
)

// FuzzPartIndex checks the partition-index function on arbitrary tuples,
// salts and every legal fan-out: the index must stay in range, depend only
// on the key half of the tuple, equal hashutil's — the contract the FPGA's
// hash unit and every CPU partitioner share — and in radix mode be exactly
// the low bits of the salted key. Buffered's histogram kernels spell the
// function out per hash mode, so they are held to the same answer.
func FuzzPartIndex(f *testing.F) {
	f.Add(uint64(0), uint(1), false, uint32(0))
	f.Add(uint64(0xFFFFFFFFFFFFFFFF), uint(13), true, uint32(0))
	f.Add(uint64(0x12345678_9ABCDEF0), uint(8), true, uint32(0x9E3779B9))
	f.Fuzz(func(t *testing.T, tuple uint64, bits uint, hash bool, salt uint32) {
		bits = 1 + bits%13 // the paper's fan-out range: 2^1..2^13
		ix := Config{NumPartitions: 1 << bits, Hash: hash, Salt: salt}.indexer()
		idx := ix.of(tuple)
		if idx >= 1<<bits {
			t.Fatalf("index of %#x (%d bits, hash %v, salt %#x) = %d, out of range", tuple, bits, hash, salt, idx)
		}
		// Only the low 32 bits (the key) may matter.
		if got := ix.of(tuple & 0xFFFFFFFF); got != idx {
			t.Fatalf("payload bits leaked into the index: %d vs %d", idx, got)
		}
		if want := hashutil.PartitionIndex32(uint32(tuple)^salt, bits, hash); idx != want {
			t.Fatalf("index of %#x = %d, hashutil says %d", tuple, idx, want)
		}
		if want := (uint32(tuple) ^ salt) & (1<<bits - 1); !hash && idx != want {
			t.Fatalf("radix index of %#x with %d bits = %d, want %d", tuple, bits, idx, want)
		}
		hist := make([]int64, 1<<bits)
		if hash {
			countHash([]uint64{tuple}, hist, ix)
		} else {
			countRadix([]uint64{tuple}, hist, ix)
		}
		if hist[idx] != 1 {
			t.Fatalf("histogram kernel (hash %v) counted %#x outside partition %d", hash, tuple, idx)
		}
	})
}

// fuzzTuples decodes a fuzz byte string into packed <key, payload> tuples.
func fuzzTuples(data []byte) []uint64 {
	tuples := make([]uint64, len(data)/8)
	for i := range tuples {
		tuples[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return tuples
}

// fuzzRelation packs tuples into a row-layout relation.
func fuzzRelation(t *testing.T, tuples []uint64) *workload.Relation {
	t.Helper()
	rel, err := workload.NewRelation(workload.RowLayout, 8, len(tuples))
	if err != nil {
		t.Fatal(err)
	}
	copy(rel.Data, tuples)
	return rel
}

// FuzzBufferedPartition is differential fuzzing of the cache-aware
// partitioner against the naive single-scatter reference (Code 1): for any
// tuple set, fan-out, hash mode, salt, worker count and destination
// alignment, Buffered (Code 2) must produce the identical Offsets and the
// identical Data, element for element — both are stable, so there is
// exactly one right answer.
func FuzzBufferedPartition(f *testing.F) {
	f.Add([]byte{}, uint8(3), true, uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(6), true, uint8(3))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(1), false, uint8(2))
	// The streaming flush's shapes: one partition holding 1, 7, 8, 9, 15 and
	// 65 tuples (inside a line, around a line, many lines), cut by 2, 3 and
	// 7 workers, on destinations starting 0…7 words into a cache line.
	for i, n := range []int{1, 7, 8, 9, 15, 65} {
		for _, workers := range []uint8{1, 2, 6} {
			f.Add(bytes.Repeat([]byte{0xA5}, 8*n), uint8(0), i%2 == 0, workers+8*uint8(n%8))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, fanBits uint8, hash bool, threads uint8) {
		if len(data) > 1<<16 {
			t.Skip("bound the per-input work")
		}
		cfg := Config{
			NumPartitions: 1 << (1 + fanBits%9), // 2..512 partitions
			Hash:          hash,
			Salt:          uint32(fanBits) * 0x9E3779B9,
		}
		workers, skew := 1+int(threads%8), int(threads/8%8)
		src := fuzzTuples(data)
		want := naiveReference(t, src, cfg)
		// Below the entry points, where the worker count is not clamped and
		// the destination's alignment can be chosen …
		requireIdentical(t, "buffered kernels", want, runBuffered(src, cfg, workers, skew))
		// … and through them.
		cfg.Threads = workers
		got, err := PartitionTuples(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "PartitionTuples", want, got)
	})
}

// FuzzBufferedAgainstHistogram cross-checks the partitioners' histogram
// against a direct count — partition sizes are the quantity the paper's
// histogram unit (Section 4.3) must get exactly right.
func FuzzBufferedAgainstHistogram(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, fanBits uint8) {
		if len(data) > 1<<16 {
			t.Skip("bound the per-input work")
		}
		bits := uint(1 + fanBits%9)
		tuples := fuzzTuples(data)
		counts := make([]int64, 1<<bits)
		for _, tu := range tuples {
			counts[hashutil.PartitionIndex32(uint32(tu), bits, true)]++
		}
		res, err := Partition(fuzzRelation(t, tuples), Config{
			NumPartitions: 1 << bits, Hash: true, Threads: 2, Algorithm: Buffered,
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := range counts {
			if res.Count(p) != counts[p] {
				t.Fatalf("partition %d holds %d tuples, direct count says %d", p, res.Count(p), counts[p])
			}
		}
	})
}
