package experiments

import (
	"fmt"
	"io"
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
	Tuples  int
	Threads []int // the thread sweep, one column per entry
	Points  []Figure4Point
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
	res := &Figure4Result{Tuples: n, Threads: cfg.threadSweep()}
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
		for _, threads := range res.Threads {
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

// Text renders the sweep pivoted as in the paper: one row per series, one
// column per thread count.
func (res *Figure4Result) Text(w io.Writer) {
	header(w, "Figure 4: CPU partitioning throughput (Mtuples/s), 8 B tuples, 8192 partitions")
	fmt.Fprintf(w, "%d tuples per run\n", res.Tuples)
	fmt.Fprintf(w, "%-26s", "series \\ threads")
	for _, t := range res.Threads {
		fmt.Fprintf(w, "%8d", t)
	}
	fmt.Fprintln(w)
	printSeries := func(name string, match func(Figure4Point) bool) {
		fmt.Fprintf(w, "%-26s", name)
		for _, p := range res.Points {
			if match(p) {
				fmt.Fprintf(w, "%8.0f", p.MTuplesPerS)
			}
		}
		fmt.Fprintln(w)
	}
	for _, d := range []workload.Distribution{workload.Linear, workload.Random, workload.Grid, workload.ReverseGrid} {
		d := d
		printSeries(fmt.Sprintf("radix (%v)", d), func(p Figure4Point) bool { return !p.Hash && p.Distribution == d })
	}
	printSeries("hash (all distributions)", func(p Figure4Point) bool { return p.Hash })
	fmt.Fprintln(w, "paper shape: hash costs extra at low threads, converges once memory-bound")
}

// CSV has one record per measurement.
func (res *Figure4Result) CSV() [][]string {
	rows := [][]string{{"distribution", "method", "threads", "mtuples_per_s"}}
	for _, p := range res.Points {
		rows = append(rows, []string{p.Distribution.String(), method(p.Hash), strconv.Itoa(p.Threads), f(p.MTuplesPerS)})
	}
	return rows
}
