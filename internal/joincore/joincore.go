// Package joincore implements the build and probe phases of the partitioned
// hash join (Section 3.3): for every partition, a cache-resident hash table
// is built over the R partition using bucket chaining (Manegold et al.) and
// probed with the corresponding S partition. Partitions are processed in
// parallel by a pool of workers pulling from a shared task counter. There is
// one executor, the Joiner (budget.go): a join without a memory budget is
// the budgeted join in which every partition fits.
//
// The phases run for real and are measured. They consume a partition as the
// contiguous word runs it is stored in, handed out by the Partitions
// interface once per partition and side, so one build loop and one probe loop
// read CPU-written partitions (a packed tuple per word), (simulated)
// FPGA-written ones (a tuple every TupleWidth/8 words, dummy-key slots that
// the loops skip, as the paper's software does) and spilled buckets alike,
// and a joined tuple costs loads rather than calls.
package joincore

import (
	"slices"
	"time"

	"fpgapart/internal/hashutil"
)

// Partitions is a partitioned relation as the word runs it is stored in.
// partition.Result implements it.
type Partitions interface {
	NumPartitions() int
	// NumRuns returns how many runs partition p is stored in.
	NumRuns(p int) int
	// Run returns the i-th run of partition p: a slot every stride words,
	// its first word a packed tuple (key in the low half, payload in the
	// high half). With hasDummy, slots whose key is dummy hold no tuple.
	Run(p, i int) (words []uint64, stride int, dummy uint32, hasDummy bool)
}

// run is one run of a partition, or a spilled bucket (stride 1, no dummy).
type run struct {
	words    []uint64
	stride   int
	dummy    uint32
	hasDummy bool
}

func runAt(ps Partitions, p, i int) run {
	words, stride, dummy, hasDummy := ps.Run(p, i)
	return run{words, stride, dummy, hasDummy}
}

// appendTuples appends the run's tuples to out, packed.
func (rn run) appendTuples(out []uint64) []uint64 {
	for i := 0; i < len(rn.words); i += rn.stride {
		if t := rn.words[i]; !rn.hasDummy || uint32(t) != rn.dummy {
			out = append(out, t)
		}
	}
	return out
}

// size returns the slots of partition p, dummy slots included, and how many
// of them hold a tuple: a division for a run without a dummy key, a compare
// per slot with one.
func size(ps Partitions, p int) (slots int, tuples int64) {
	for i, k := 0, ps.NumRuns(p); i < k; i++ {
		rn := runAt(ps, p, i)
		slots += len(rn.words) / rn.stride
		for j := 0; rn.hasDummy && j < len(rn.words); j += rn.stride {
			if uint32(rn.words[j]) == rn.dummy {
				tuples--
			}
		}
	}
	return slots, tuples + int64(slots)
}

// collect returns the tuples of partition p as packed words: the partition
// itself when it is stored as one such run, else a compacted copy written
// over *buf, which keeps the grown buffer for the next copy.
func collect(ps Partitions, p int, buf *[]uint64) []uint64 {
	k := ps.NumRuns(p)
	if k == 1 {
		if rn := runAt(ps, p, 0); rn.stride == 1 && !rn.hasDummy {
			return rn.words
		}
	}
	slots, _ := size(ps, p)
	out := slices.Grow((*buf)[:0], slots)
	for i := 0; i < k; i++ {
		out = runAt(ps, p, i).appendTuples(out)
	}
	*buf = out
	return out
}

// Result reports a build+probe run.
type Result struct {
	Matches  int64
	Checksum uint64 // sum of matched payload pairs, for cross-validation

	// Elapsed is the measured wall time of the whole phase; Build and
	// Probe split it proportionally to the per-worker phase times.
	Elapsed time.Duration
	Build   time.Duration
	Probe   time.Duration

	Threads int
}

// BuildProbe joins the partitions of R and S with no memory budget — the
// executor's in-budget case: every partition fits, nothing spills. Both
// inputs must have the same fan-out. threads ≤ 0 uses all cores.
func BuildProbe(r, s Partitions, threads int) (Result, error) {
	res, _, err := BudgetedBuildProbe(r, s, BudgetConfig{Threads: threads})
	return res, err
}

// entry is one build tuple and the link of its bucket chain: an index + 1
// into the entry array, 0 at the chain's end. Its 16 bytes are what
// BuildTupleBytes charges a budget per build tuple.
type entry struct {
	tuple uint64
	next  int32
}

// buildTable is a bucket-chaining hash table over one build side: head maps
// a bucket to an entry index + 1, the entries hold the tuples themselves, so
// a probe never goes back to where the build side is stored. Reused across
// partitions to avoid per-partition allocation.
type buildTable struct {
	head    []int32
	entries []entry
	mask    uint32
}

// bucketOf hashes a key into the table. The partition already consumed the
// low hash bits, so the bucket uses the upper bits of the murmur value —
// independent bits, as the bucket-chaining scheme of [21] requires.
func (bt *buildTable) bucketOf(key uint32) uint32 {
	return (hashutil.Murmur32Finalizer(key) >> 13) & bt.mask
}

// reset empties the table and sizes it for n tuples, in powers of two.
func (bt *buildTable) reset(n int) {
	buckets := 16
	for buckets < n {
		buckets <<= 1
	}
	if cap(bt.head) < buckets {
		bt.head = make([]int32, buckets)
	} else {
		bt.head = bt.head[:buckets]
		clear(bt.head)
	}
	if cap(bt.entries) < n {
		bt.entries = make([]entry, 0, buckets)
	}
	bt.entries = bt.entries[:0]
	bt.mask = uint32(buckets - 1)
}

// add chains the run's tuples in slot order, each at the front of its
// bucket's chain. It is the one build loop of the partitioned joins.
//
//fpgavet:hotpath
func (bt *buildTable) add(rn run) {
	for i := 0; i < len(rn.words); i += rn.stride {
		t := rn.words[i]
		if rn.hasDummy && uint32(t) == rn.dummy {
			continue // dummy slot in an FPGA-written partition
		}
		b := bt.bucketOf(uint32(t))
		bt.entries = append(bt.entries, entry{t, bt.head[b]})
		bt.head[b] = int32(len(bt.entries))
	}
}

// NestedLoop is the O(|R|·|S|) reference join used to validate the hash
// join in tests. Only suitable for small inputs.
func NestedLoop(r, s Partitions) (matches int64, checksum uint64) {
	for p := 0; p < r.NumPartitions(); p++ {
		for _, rt := range collect(r, p, new([]uint64)) {
			for q := 0; q < s.NumPartitions(); q++ {
				for _, st := range collect(s, q, new([]uint64)) {
					if uint32(rt) == uint32(st) {
						matches++
						checksum += rt>>32 + st>>32
					}
				}
			}
		}
	}
	return matches, checksum
}
