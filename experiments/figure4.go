package experiments

import (
	"fmt"
	"strconv"

	"fpgapart/partition"
	"fpgapart/workload"
)

// Figure4Point is one measurement of Figure 4: CPU partitioning throughput
// for a distribution/method at a thread count.
type Figure4Point struct {
	Distribution workload.Distribution
	Hash         bool
	Threads      int
	MTuplesPerS  float64
}

// Figure4Result is the full sweep.
type Figure4Result struct {
	Tuples int
	Points []Figure4Point
}

// RunFigure4 measures the software partitioner (8 B tuples, 8192
// partitions) with radix partitioning on each key distribution and with
// hash partitioning, across the thread sweep. The real CPU of the machine
// running this is measured — absolute numbers differ from the paper's Xeon,
// the shape (radix ≈ hash once memory-bound; throughput scales with
// threads) is what reproduces.
func RunFigure4(cfg Config) (*Figure4Result, error) {
	cfg = cfg.WithDefaults()
	n := max(int(128e6*cfg.Scale), 1<<15)
	res := &Figure4Result{Tuples: n}
	type variant struct {
		d    workload.Distribution
		hash bool
	}
	variants := []variant{
		{workload.Linear, false},
		{workload.Random, false},
		{workload.Grid, false},
		{workload.ReverseGrid, false},
		// Hash partitioning delivers the same throughput for every key
		// distribution (Figure 4); one representative suffices.
		{workload.Random, true},
	}
	for _, v := range variants {
		rel, err := workload.NewGenerator(cfg.Seed).Relation(v.d, 8, n)
		if err != nil {
			return nil, err
		}
		for _, threads := range cfg.threadSweep() {
			p, err := partition.NewCPU(partition.CPUOptions{Partitions: 8192, Hash: v.hash, Threads: threads})
			if err != nil {
				return nil, err
			}
			r, err := p.Partition(rel)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Figure4Point{
				Distribution: v.d,
				Hash:         v.hash,
				Threads:      threads,
				MTuplesPerS:  float64(n) / r.Elapsed().Seconds() / 1e6,
			})
		}
	}
	return res, nil
}

func (res *Figure4Result) Notes() []string {
	return []string{
		fmt.Sprintf("%d tuples per run; hash is measured on random keys only", res.Tuples),
		"paper shape: hash costs extra at low threads, converges once memory-bound",
	}
}

// CSV has one record per measurement.
func (res *Figure4Result) CSV() [][]string {
	rows := [][]string{{"distribution", "method", "threads", "mtuples_per_s"}}
	for _, p := range res.Points {
		rows = append(rows, []string{p.Distribution.String(), method(p.Hash), strconv.Itoa(p.Threads), f(p.MTuplesPerS)})
	}
	return rows
}
