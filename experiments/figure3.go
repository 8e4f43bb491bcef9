package experiments

import (
	"fmt"
	"strconv"

	"fpgapart/internal/hashutil"
	"fpgapart/workload"
)

// Figure3Series summarizes the distribution of tuples over partitions for
// one key distribution and partitioning method — the data behind the CDFs
// of Figure 3.
type Figure3Series struct {
	Distribution workload.Distribution
	Hash         bool

	EmptyParts    int
	MinTuples     int64
	P25, P50, P75 int64
	MaxTuples     int64
	// Imbalance is max/mean — 1.0 is perfectly balanced.
	Imbalance float64
	// CDF maps a tuples-per-partition threshold to the number of
	// partitions at or below it, at the paper's x-axis ticks.
	CDF map[int64]int
}

// Figure3Result holds all eight series (4 distributions × radix/hash).
type Figure3Result struct {
	Tuples int
	Series []Figure3Series
}

// RunFigure3 partitions each key distribution with radix and with murmur
// hash partitioning into 8192 partitions and reports the partition-size
// distributions. The paper uses 64 M keys; Scale shrinks that.
func RunFigure3(cfg Config) (*Figure3Result, error) {
	cfg = cfg.WithDefaults()
	// Keep at least ~128 tuples per partition so the partition-size
	// statistics are not dominated by sampling noise.
	n := max(int(64e6*cfg.Scale), 1<<20)
	const parts = 8192
	bits := hashutil.Log2(parts)
	res := &Figure3Result{Tuples: n}
	keys := make([]uint32, n)
	for _, d := range []workload.Distribution{workload.Linear, workload.Random, workload.Grid, workload.ReverseGrid} {
		if err := workload.NewGenerator(cfg.Seed).Keys(d, keys); err != nil {
			return nil, err
		}
		for _, hash := range []bool{false, true} {
			hist := make([]int64, parts)
			for _, k := range keys {
				hist[hashutil.PartitionIndex32(k, bits, hash)]++
			}
			res.Series = append(res.Series, summarize(d, hash, hist, n))
		}
	}
	return res, nil
}

func summarize(d workload.Distribution, hash bool, hist []int64, n int) Figure3Series {
	sorted := sortedCopy(hist)
	s := Figure3Series{
		Distribution: d,
		Hash:         hash,
		MinTuples:    sorted[0],
		P25:          percentile(sorted, 25),
		P50:          percentile(sorted, 50),
		P75:          percentile(sorted, 75),
		MaxTuples:    sorted[len(sorted)-1],
		CDF:          map[int64]int{},
	}
	for _, c := range sorted {
		if c == 0 {
			s.EmptyParts++
		}
	}
	mean := float64(n) / float64(len(hist))
	if mean > 0 {
		s.Imbalance = float64(s.MaxTuples) / mean
	}
	// CDF at multiples of the mean (the paper's x-axis is absolute tuple
	// counts at fixed N; multiples of the mean are scale-free).
	for _, mult := range []float64{0.5, 1, 2, 4, 8} {
		threshold := int64(mean * mult)
		count := 0
		for _, c := range sorted {
			if c <= threshold {
				count++
			}
		}
		s.CDF[threshold] = count
	}
	return s
}

// method names a partitioning function in the Figure 3 and 4 renderings.
func method(hash bool) string {
	if hash {
		return "hash"
	}
	return "radix"
}

func (res *Figure3Result) Notes() []string {
	return []string{
		fmt.Sprintf("%d keys per distribution; mean = %d tuples/partition", res.Tuples, res.Tuples/8192),
		"paper: radix is unbalanced for grid/reverse-grid keys (3a); hash is uniform for all (3b)",
	}
}

func (res *Figure3Result) CSV() [][]string {
	rows := [][]string{{"distribution", "method", "empty", "min", "p25", "p50", "p75", "max", "imbalance"}}
	for _, s := range res.Series {
		rows = append(rows, []string{s.Distribution.String(), method(s.Hash), strconv.Itoa(s.EmptyParts),
			d(s.MinTuples), d(s.P25), d(s.P50), d(s.P75), d(s.MaxTuples), f(s.Imbalance)})
	}
	return rows
}
