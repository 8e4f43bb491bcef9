// Package cpupart implements the software data partitioners of Section 3:
// the state-of-the-art single-pass radix/hash partitioner with
// software-managed cache-resident buffers (Code 2, following Balkesen et
// al.) and the naive tuple-at-a-time scatter (Code 1). These run for real on
// the host CPU and are measured, not simulated — they are the baseline the
// FPGA circuit is compared against.
//
// The partitioners operate on 8-byte tuples (<4B key, 4B payload> packed
// into a uint64), the layout of all the paper's CPU experiments.
//
// Both share one shape (layout): per-worker histograms over contiguous
// chunks of the input, a prefix sum that hands every worker a private range
// of every partition, and a scatter pass that therefore needs no
// synchronisation. Code 2's scatter is what the paper's baseline is defined
// by: each partition has a buffer that is one destination cache line — the
// fill slot is the destination word address mod 8, so a full buffer is a
// whole, 64-byte-aligned line — and a full buffer is flushed with
// non-temporal stores (MOVNTDQ on amd64, an ordinary line store elsewhere
// and under -tags purego), which overwrite the line without first reading
// it for ownership.
package cpupart

import (
	"fmt"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"fpgapart/internal/hashutil"
	"fpgapart/workload"
)

// Algorithm selects the partitioning strategy.
type Algorithm int

const (
	// Buffered is Code 2: one pass with per-partition software-managed
	// write-combining buffers, preceded by a histogram pass for
	// synchronization-free parallel output.
	Buffered Algorithm = iota
	// Naive is Code 1: tuple-at-a-time scatter straight to the output,
	// trashing TLB and caches at high fan-outs.
	Naive
)

func (a Algorithm) String() string {
	switch a {
	case Buffered:
		return "buffered"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// BufferTuples is the software-managed buffer size: 8 tuples × 8 bytes =
// one 64-byte cache line, the unit of the streaming flush (storeLine; the
// non-temporal SIMD store of Wassenberg et al.).
const BufferTuples = 8

// Config describes a partitioning run.
type Config struct {
	NumPartitions int
	// Hash selects murmur hash partitioning; false selects radix bits.
	Hash bool
	// Threads is the parallelism (≤ 0 means GOMAXPROCS). The output does
	// not depend on it, so it is a ceiling: every worker gets at least
	// NumPartitions tuples, which bounds scratch memory by the input size.
	Threads   int
	Algorithm Algorithm
	// Salt is XORed into the key before hashing, so a recursive
	// repartitioning pass (membudget spill recovery) splits a bucket whose
	// keys already agree on the parent's hash bits. Only effective with
	// Hash — radix partitioning of key^salt permutes bucket labels without
	// separating keys that share low bits — and zero for top-level passes.
	Salt uint32
}

func (c *Config) validate() error {
	if !hashutil.IsPowerOfTwo(c.NumPartitions) || c.NumPartitions < 2 {
		return fmt.Errorf("cpupart: NumPartitions %d must be a power of two ≥ 2", c.NumPartitions)
	}
	if c.Algorithm < Buffered || c.Algorithm > Naive {
		return fmt.Errorf("cpupart: unknown algorithm %v", c.Algorithm)
	}
	return nil
}

// Result is a partitioned relation: tuples stored contiguously by
// partition, with exact (dummy-free) boundaries.
type Result struct {
	NumPartitions int
	// Data holds the shuffled tuples; partition p is
	// Data[Offsets[p]:Offsets[p+1]]. Within a partition tuples keep their
	// input order, whatever the algorithm and thread count.
	Data []uint64
	// Offsets has NumPartitions+1 entries (prefix sum of the histogram).
	Offsets []int64
	// Elapsed is the measured wall time of the partitioning.
	Elapsed time.Duration
}

// Count returns the number of tuples in partition p.
func (r *Result) Count(p int) int64 { return r.Offsets[p+1] - r.Offsets[p] }

// Partition returns partition p's tuples.
func (r *Result) Partition(p int) []uint64 { return r.Data[r.Offsets[p]:r.Offsets[p+1]] }

// Partition partitions rel (which must be a row-layout relation of 8-byte
// tuples) according to cfg.
func Partition(rel *workload.Relation, cfg Config) (*Result, error) {
	return (*Scratch)(nil).Partition(rel, cfg)
}

// PartitionTuples partitions a raw slice of packed 8-byte tuples according
// to cfg, without a Relation wrapper and without a Scratch; src is not
// modified. It is a reference: the budgeted join's repartitioning passes go
// through a Scratch, and only the fuzz and alignment tests call this.
func PartitionTuples(src []uint64, cfg Config) (*Result, error) {
	return (*Scratch)(nil).PartitionTuples(src, cfg)
}

// Scratch is the working memory of a Buffered call that is garbage once the
// call returns — per-worker histograms, cursors and buffer lines,
// O(threads × fan-out × 80 B) — kept so that a long-lived caller's next call
// reuses it; for a relation of a few hundred tuples it is most of what a
// call allocates. The zero value is ready, a nil *Scratch makes every call
// allocate afresh, and one Scratch serves one call at a time. A Result never
// points into it.
type Scratch struct {
	ints  []int64
	lines [][BufferTuples]uint64
}

// take returns n zeroed histogram counters, n cursors and n buffer lines.
// The cursors and lines come back stale: every cursor is set before it is
// read, and only the words of a line written since its last flush ever
// leave it.
func (sc *Scratch) take(n int) (hist, cur []int64, lines [][BufferTuples]uint64) {
	if sc == nil {
		sc = &Scratch{}
	}
	if cap(sc.ints) < 2*n {
		sc.ints, sc.lines = make([]int64, 2*n), make([][BufferTuples]uint64, n)
	}
	hist, cur = sc.ints[:n:n], sc.ints[n:2*n]
	clear(hist)
	return hist, cur, sc.lines[:n]
}

// Partition is the package's Partition, working in sc.
func (sc *Scratch) Partition(rel *workload.Relation, cfg Config) (*Result, error) {
	if rel.Layout != workload.RowLayout || rel.Width != 8 {
		return nil, fmt.Errorf("cpupart: need row-layout 8-byte tuples, got %v %dB", rel.Layout, rel.Width)
	}
	return sc.PartitionTuples(rel.Data, cfg)
}

// PartitionTuples is the package's PartitionTuples, working in sc.
func (sc *Scratch) PartitionTuples(src []uint64, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	threads = max(1, min(threads, len(src)/cfg.NumPartitions))
	start := time.Now()
	res := &Result{NumPartitions: cfg.NumPartitions, Data: make([]uint64, len(src))}
	switch ix := cfg.indexer(); cfg.Algorithm {
	case Buffered:
		res.Offsets = buffered(src, res.Data, threads, ix, sc)
	case Naive:
		res.Offsets = naive(src, res.Data, threads, ix)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// indexer maps a packed tuple to its partition: the salted key, hashed or
// raw, masked to the fan-out's low bits. block (hash mode only) sends
// Buffered's two passes through hashutil.MurmurBlock a block of keys at a
// time; it is set exactly where that block kernel is vector code.
type indexer struct {
	salt, mask  uint32
	hash, block bool
}

func (c Config) indexer() indexer {
	return indexer{salt: c.Salt, mask: uint32(c.NumPartitions - 1), hash: c.Hash, block: c.Hash && hashutil.VectorMurmur()}
}

// parts is the number of partitions ix distinguishes.
func (ix indexer) parts() int { return int(ix.mask) + 1 }

// of computes the partition of a packed tuple — per-tuple inner-loop code of
// Naive, pinned allocation-free. (Buffered's kernels below
// spell the same function out per hash mode.)
//
//fpgavet:hotpath
func (ix indexer) of(t uint64) uint32 {
	k := uint32(t) ^ ix.salt
	if ix.hash {
		k = hashutil.Murmur32Finalizer(k)
	}
	return k & ix.mask
}

// parallel runs fn(0) … fn(threads-1) concurrently and waits for them;
// worker 0 — the only one of a single-thread call — runs on the caller's
// goroutine.
func parallel(threads int, fn func(w int)) {
	if threads == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads - 1)
	for w := 1; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// chunk is worker w's contiguous share of src.
func chunk(src []uint64, w, threads int) []uint64 {
	return src[len(src)*w/threads : len(src)*(w+1)/threads]
}

// layout is the first half of every algorithm: count fills one histogram
// per worker (flat, worker-major: worker w owns [w*p, (w+1)*p)), and a
// prefix sum turns the histograms in place into each worker's first write
// position in each partition. Within a partition worker w's range precedes
// worker w+1's, so the scatter pass that follows writes private ranges —
// the CPU algorithm builds the histogram "out of necessity" (Section 4.7) —
// and the output is the same for every worker count. first arrives zeroed,
// threads × fan-out long; layout returns the partition offsets.
func layout(src []uint64, threads int, ix indexer, count func(src []uint64, hist []int64, ix indexer), first []int64) []int64 {
	p := ix.parts()
	parallel(threads, func(w int) { count(chunk(src, w, threads), first[w*p:(w+1)*p], ix) })
	offsets := make([]int64, p+1)
	for i := 0; i < p; i++ {
		pos := offsets[i]
		for w := 0; w < threads; w++ {
			n := first[w*p+i]
			first[w*p+i] = pos
			pos += n
		}
		offsets[i+1] = pos
	}
	return offsets
}

// buffered is the parallel Code 2: a histogram pass, then the buffered
// scatter, each with one loop per hash mode (two for hash: blocked and
// inline). All per-worker state lives in three flat arrays (first
// positions, cursors, buffer lines) taken from sc, so the number of heap
// objects does not depend on the fan-out.
func buffered(src, dst []uint64, threads int, ix indexer, sc *Scratch) []int64 {
	count := countRadix
	switch {
	case ix.block:
		count = countHashBlocked
	case ix.hash:
		count = countHash
	}
	p := ix.parts()
	first, cur, lines := sc.take(threads * p)
	offsets := layout(src, threads, ix, count, first)
	// skew is how many words dst starts past a cache-line boundary: the
	// alignment that matters is the destination address's, not the index's.
	skew := int64(uintptr(unsafe.Pointer(unsafe.SliceData(dst))) / 8 % BufferTuples)
	parallel(threads, func(w int) {
		b := buffers{dst: dst, skew: skew, first: first[w*p : (w+1)*p], cur: cur[w*p : (w+1)*p], lines: lines[w*p : (w+1)*p]}
		for i, at := range b.first {
			b.cur[i] = at + skew
		}
		switch {
		case ix.block:
			scatterHashBlocked(chunk(src, w, threads), &b, ix)
		case ix.hash:
			scatterHash(chunk(src, w, threads), &b, ix)
		default:
			scatterRadix(chunk(src, w, threads), &b, ix)
		}
		b.drain()
	})
	return offsets
}

// buffers is one worker's write-combining state. cur[i] is partition i's
// write cursor in line coordinates — destination index plus skew — so that
// cur[i]%8 is both the word's place in its destination cache line and its
// slot in lines[i]; first[i] is the worker's first destination index there.
type buffers struct {
	dst        []uint64
	skew       int64
	first, cur []int64
	lines      [][BufferTuples]uint64
}

// flush writes out lines[i], just filled up to line coordinate end. A line
// the worker owns from its first word — every one but possibly the first of
// its range in the partition, which may begin mid-line behind another
// worker's or partition's tuples — goes out whole with streaming stores.
//
//fpgavet:hotpath
func (b *buffers) flush(i uint, end int64) {
	lo := end - BufferTuples - b.skew
	if first := b.first[i]; lo < first {
		copy(b.dst[first:lo+BufferTuples], b.lines[i][first-lo:])
		return
	}
	storeLine((*[BufferTuples]uint64)(b.dst[lo:]), &b.lines[i])
}

// drain writes every partition's partly filled last line with ordinary
// stores (its remaining words belong to the next worker or partition), then
// fences, so that whoever reads Result.Data after the workers are waited for
// sees the streamed lines too.
func (b *buffers) drain() {
	for i, end := range b.cur {
		lo := max(end&^(BufferTuples-1)-b.skew, b.first[i])
		copy(b.dst[lo:end-b.skew], b.lines[i][(lo+b.skew)%BufferTuples:])
	}
	storeFence()
}

// countHash and countRadix are the histogram loops, scatterHash and
// scatterRadix the buffered scatter loops: one per hash mode, so the mode is
// not re-decided per tuple. len(hist) and len(b.cur) are the fan-out, a
// power of two, so len-1 is the partition mask; with the length known to be
// non-zero the compiler proves the masked index in range and the loop
// bodies carry no bounds checks.
//
//fpgavet:hotpath
func countHash(src []uint64, hist []int64, ix indexer) {
	if len(hist) == 0 {
		return
	}
	mask := uint(len(hist) - 1)
	for _, t := range src {
		hist[uint(hashutil.Murmur32Finalizer(uint32(t)^ix.salt))&mask]++
	}
}

//fpgavet:hotpath
func countRadix(src []uint64, hist []int64, ix indexer) {
	if len(hist) == 0 {
		return
	}
	mask := uint(len(hist) - 1)
	for _, t := range src {
		hist[uint(uint32(t)^ix.salt)&mask]++
	}
}

//fpgavet:hotpath
func scatterHash(src []uint64, b *buffers, ix indexer) {
	cur, lines := b.cur, b.lines[:len(b.cur)]
	if len(cur) == 0 {
		return
	}
	mask := uint(len(cur) - 1)
	for _, t := range src {
		i := uint(hashutil.Murmur32Finalizer(uint32(t)^ix.salt)) & mask
		at := cur[i]
		lines[i][at&(BufferTuples-1)] = t
		cur[i] = at + 1
		if (at+1)&(BufferTuples-1) == 0 {
			b.flush(i, at+1)
		}
	}
}

// hashBlock is how many partition indices the blocked hash loops compute
// ahead of use, into a stack array: 1 KiB, so the block stays in L1 beside
// the buffer lines it is about to address.
const hashBlock = 256

// countHashBlocked and scatterHashBlocked are countHash and scatterHash
// with the hash taken out of the per-tuple loop: hashutil.MurmurBlock
// computes a block's partition indices first (eight keys per instruction
// with AVX2), then the loop consumes them. With a scalar MurmurBlock the
// extra pass over the block costs more than it saves, so buffered picks
// these only where the kernel is vector code (indexer.block).
//
//fpgavet:hotpath
func countHashBlocked(src []uint64, hist []int64, ix indexer) {
	if len(hist) == 0 {
		return
	}
	mask := uint(len(hist) - 1)
	var idx [hashBlock]uint32
	for len(src) > 0 {
		n := min(len(src), hashBlock)
		hashutil.MurmurBlock(idx[:n], src[:n], ix.salt, ix.mask)
		for _, i := range idx[:n] {
			hist[uint(i)&mask]++
		}
		src = src[n:]
	}
}

//fpgavet:hotpath
func scatterHashBlocked(src []uint64, b *buffers, ix indexer) {
	cur, lines := b.cur, b.lines[:len(b.cur)]
	if len(cur) == 0 {
		return
	}
	mask := uint(len(cur) - 1)
	var idx [hashBlock]uint32
	for len(src) > 0 {
		n := min(len(src), hashBlock)
		blk, ids := src[:n], idx[:n]
		hashutil.MurmurBlock(ids, blk, ix.salt, ix.mask)
		for j, t := range blk {
			i := uint(ids[j]) & mask
			at := cur[i]
			lines[i][at&(BufferTuples-1)] = t
			cur[i] = at + 1
			if (at+1)&(BufferTuples-1) == 0 {
				b.flush(i, at+1)
			}
		}
		src = src[n:]
	}
}

//fpgavet:hotpath
func scatterRadix(src []uint64, b *buffers, ix indexer) {
	cur, lines := b.cur, b.lines[:len(b.cur)]
	if len(cur) == 0 {
		return
	}
	mask := uint(len(cur) - 1)
	for _, t := range src {
		i := uint(uint32(t)^ix.salt) & mask
		at := cur[i]
		lines[i][at&(BufferTuples-1)] = t
		cur[i] = at + 1
		if (at+1)&(BufferTuples-1) == 0 {
			b.flush(i, at+1)
		}
	}
}

// countAny is the histogram loop of Naive.
func countAny(src []uint64, hist []int64, ix indexer) {
	for _, t := range src {
		hist[ix.of(t)]++
	}
}

// naive is Code 1 run on several threads with the same histogram-based
// synchronization but no write combining.
func naive(src, dst []uint64, threads int, ix indexer) []int64 {
	p := ix.parts()
	cur := make([]int64, threads*p)
	offsets := layout(src, threads, ix, countAny, cur)
	parallel(threads, func(w int) {
		cur := cur[w*p : (w+1)*p]
		for _, t := range chunk(src, w, threads) {
			i := ix.of(t)
			dst[cur[i]] = t
			cur[i]++
		}
	})
	return offsets
}
