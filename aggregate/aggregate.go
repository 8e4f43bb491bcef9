// Package aggregate implements hardware-conscious group-by aggregation on
// top of the data partitioner — the first broader use the paper proposes for
// its circuit (Section 6, following Absalyamov et al., DaMoN 2016): the
// relation is partitioned by group key so that each partition's aggregation
// hash table is cache-resident, then partitions are aggregated in parallel.
//
// Like the join, the operator is backend-agnostic: partition on the CPU or
// on the simulated FPGA; the per-partition aggregation always runs (and is
// measured) on the CPU, with the coherence penalty applied when the FPGA
// wrote the partitions.
package aggregate

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpgapart/internal/hashutil"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// Group is one aggregation result row: per distinct key, the count and the
// running sum/min/max of the 4-byte payload.
type Group struct {
	Key   uint32
	Count int64
	Sum   uint64
	Min   uint32
	Max   uint32
}

// Avg returns the mean payload of the group.
func (g Group) Avg() float64 {
	if g.Count == 0 {
		return 0
	}
	return float64(g.Sum) / float64(g.Count)
}

// Options configures an aggregation run.
type Options struct {
	// Partitions is the fan-out (power of two).
	Partitions int
	// Threads ≤ 0 uses all cores.
	Threads int
	// Hash selects murmur partitioning (recommended: group keys are
	// frequently skewed or structured).
	Hash bool
	// Format selects the FPGA partitioner mode for Hybrid runs.
	Format partition.Format
	// PadFraction is the PAD headroom for Hybrid runs.
	PadFraction float64
	// Platform supplies the coherence model; defaults to XeonFPGA.
	Platform *platform.Platform
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.Platform == nil {
		o.Platform = platform.XeonFPGA()
	}
	return o
}

// Result is an aggregation run: groups sorted by key, plus the phase
// breakdown.
type Result struct {
	Groups []Group

	// PartitionTime is measured (CPU) or simulated (FPGA).
	PartitionTime time.Duration
	// AggregateTime is measured; for hybrid runs it includes the sequential
	// snoop penalty (aggregation scans FPGA-written partitions).
	AggregateTime time.Duration
	Total         time.Duration

	PartitionerName    string
	CoherencePenalized bool
	Threads            int
}

// Find returns the group for key, if present.
func (r *Result) Find(key uint32) (Group, bool) {
	i := sort.Search(len(r.Groups), func(i int) bool { return r.Groups[i].Key >= key })
	if i < len(r.Groups) && r.Groups[i].Key == key {
		return r.Groups[i], true
	}
	return Group{}, false
}

// Partitioned aggregates rel's payloads grouped by key, partitioning with p
// first — through partition.Exact, so the group whose key equals the FPGA's
// dummy key is not lost.
func Partitioned(rel *workload.Relation, p partition.Partitioner, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	parted, via, err := partition.Exact(p, rel, opts.Hash, opts.Threads)
	if err != nil {
		return nil, fmt.Errorf("aggregate: partitioning: %w", err)
	}

	start := time.Now()
	perPart := make([][]Group, parted.NumPartitions())
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < opts.Threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var table aggTable
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= parted.NumPartitions() {
					return
				}
				table.reset(parted.SlotCount(i))
				parted.Each(i, func(key, payload uint32) { table.add(key, payload) })
				perPart[i] = table.groups()
			}
		}()
	}
	wg.Wait()
	aggElapsed := time.Since(start)

	var groups []Group
	for _, g := range perPart {
		groups = append(groups, g...)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })

	res := &Result{
		Groups:          groups,
		PartitionTime:   parted.Elapsed(),
		AggregateTime:   aggElapsed,
		PartitionerName: via.Name(),
		Threads:         opts.Threads,
	}
	if parted.FPGAWritten() {
		// Aggregation scans the partitions sequentially, so the sequential
		// snoop penalty of Table 1 applies.
		res.AggregateTime = time.Duration(float64(aggElapsed) * opts.Platform.Coherence.BuildPenalty())
		res.CoherencePenalized = true
	}
	res.Total = res.PartitionTime + res.AggregateTime
	return res, nil
}

// CPU aggregates with the software partitioner.
func CPU(rel *workload.Relation, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	p, err := partition.NewCPU(partition.CPUOptions{
		Partitions: opts.Partitions,
		Hash:       opts.Hash,
		Threads:    opts.Threads,
	})
	if err != nil {
		return nil, err
	}
	return Partitioned(rel, p, opts)
}

// Hybrid aggregates with the simulated FPGA partitioner.
func Hybrid(rel *workload.Relation, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	p, err := partition.NewFPGA(partition.FPGAOptions{
		Partitions:      opts.Partitions,
		Hash:            opts.Hash,
		Format:          opts.Format,
		PadFraction:     opts.PadFraction,
		Platform:        opts.Platform,
		FallbackThreads: opts.Threads,
	})
	if err != nil {
		return nil, err
	}
	return Partitioned(rel, p, opts)
}

// Global is the unpartitioned baseline: one big hash table over the whole
// relation, single pass. It wins for few groups (table stays cached) and
// loses once the group state spills past the caches — the trade-off that
// motivates partitioned aggregation.
func Global(rel *workload.Relation, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	var table aggTable
	table.reset(rel.NumTuples)
	for i := 0; i < rel.NumTuples; i++ {
		table.add(rel.Key(i), rel.Payload(i))
	}
	groups := table.groups()
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	elapsed := time.Since(start)
	return &Result{
		Groups:          groups,
		AggregateTime:   elapsed,
		Total:           elapsed,
		PartitionerName: "none",
		Threads:         1,
	}, nil
}

// aggTable is an open-chaining aggregation hash table, reused across
// partitions.
type aggTable struct {
	head []int32
	next []int32
	rows []Group
	mask uint32
}

func (t *aggTable) reset(expected int) {
	buckets := 16
	for buckets < expected {
		buckets <<= 1
	}
	if cap(t.head) >= buckets {
		t.head = t.head[:buckets]
		for i := range t.head {
			t.head[i] = 0
		}
	} else {
		t.head = make([]int32, buckets)
	}
	t.mask = uint32(buckets - 1)
	t.next = t.next[:0]
	t.rows = t.rows[:0]
}

func (t *aggTable) add(key, payload uint32) {
	b := hashutil.Murmur32Finalizer(key) & t.mask
	for slot := t.head[b]; slot != 0; slot = t.next[slot-1] {
		g := &t.rows[slot-1]
		if g.Key == key {
			g.Count++
			g.Sum += uint64(payload)
			if payload < g.Min {
				g.Min = payload
			}
			if payload > g.Max {
				g.Max = payload
			}
			return
		}
	}
	t.rows = append(t.rows, Group{Key: key, Count: 1, Sum: uint64(payload), Min: payload, Max: payload})
	t.next = append(t.next, t.head[b])
	t.head[b] = int32(len(t.rows))
}

func (t *aggTable) groups() []Group {
	return append([]Group(nil), t.rows...)
}
