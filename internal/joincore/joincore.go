// Package joincore implements the build and probe phases of the partitioned
// hash join (Section 3.3): for every partition, a cache-resident hash table
// is built over the R partition using bucket chaining (Manegold et al.) and
// probed with the corresponding S partition. Partitions are processed in
// parallel by a pool of workers pulling from a shared task counter. There is
// one executor (budget.go): a join without a memory budget is the budgeted
// join in which every partition fits.
//
// The phases run for real and are measured; they consume partitions through
// the Partitions interface so the same code probes CPU-written and
// (simulated) FPGA-written partitions — the latter containing dummy-key
// slots that the build and probe skip, as the paper's software does.
package joincore

import (
	"time"

	"fpgapart/internal/hashutil"
)

// Partitions is the slot-level view of a partitioned relation.
// partition.Result implements it.
type Partitions interface {
	NumPartitions() int
	// SlotCount returns the number of addressable tuple slots in partition
	// p, including dummy slots of FPGA-written partitions.
	SlotCount(p int) int
	// Slot returns the tuple in slot i; ok is false for dummy slots.
	Slot(p, i int) (key, payload uint32, ok bool)
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
func BuildProbe(r, s Partitions, threads int) (*Result, error) {
	res, _, err := BudgetedBuildProbe(r, s, BudgetConfig{Threads: threads})
	return res, err
}

// buildTable is a bucket-chaining hash table over one R partition: head maps
// a bucket to a slot index + 1, next chains slots. Reused across partitions
// to avoid per-partition allocation.
type buildTable struct {
	head []int32
	next []int32
	mask uint32
}

// bucketOf hashes a key into the table. The partition already consumed the
// low hash bits, so the bucket uses the upper bits of the murmur value —
// independent bits, as the bucket-chaining scheme of [21] requires.
func (bt *buildTable) bucketOf(key uint32) uint32 {
	return (hashutil.Murmur32Finalizer(key) >> 13) & bt.mask
}

// build chains the valid slots of partition p and returns how many there are.
func (bt *buildTable) build(r Partitions, p int) (valid int64) {
	n := r.SlotCount(p)
	buckets := 1
	for buckets < n {
		buckets <<= 1
	}
	if buckets < 16 {
		buckets = 16
	}
	if cap(bt.head) < buckets {
		bt.head = make([]int32, buckets)
	} else {
		bt.head = bt.head[:buckets]
		for i := range bt.head {
			bt.head[i] = 0
		}
	}
	if cap(bt.next) < n {
		bt.next = make([]int32, n)
	} else {
		bt.next = bt.next[:n]
	}
	bt.mask = uint32(buckets - 1)
	for i := 0; i < n; i++ {
		key, _, ok := r.Slot(p, i)
		if !ok {
			continue // dummy slot in an FPGA-written partition
		}
		valid++
		b := bt.bucketOf(key)
		bt.next[i] = bt.head[b]
		bt.head[b] = int32(i) + 1
	}
	return valid
}

// NestedLoop is the O(|R|·|S|) reference join used to validate the hash
// join in tests. Only suitable for small inputs.
func NestedLoop(r, s Partitions) (matches int64, checksum uint64) {
	for p := 0; p < r.NumPartitions(); p++ {
		for i := 0; i < r.SlotCount(p); i++ {
			rKey, rPay, ok := r.Slot(p, i)
			if !ok {
				continue
			}
			for q := 0; q < s.NumPartitions(); q++ {
				for j := 0; j < s.SlotCount(q); j++ {
					sKey, sPay, ok := s.Slot(q, j)
					if ok && sKey == rKey {
						matches++
						checksum += uint64(rPay) + uint64(sPay)
					}
				}
			}
		}
	}
	return matches, checksum
}
