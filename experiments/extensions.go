package experiments

import (
	"errors"
	"fmt"
	"strconv"

	"fpgapart/codec"
	"fpgapart/distjoin"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// SkewDetectPoint records where in the input stream a PAD-mode overflow was
// detected for one seed, as a fraction of the relation.
type SkewDetectPoint struct {
	ZipfFactor float64
	Seed       int64
	Overflowed bool
	// DetectedAtFraction is OverflowAtTuple / N (1.0 if no overflow).
	DetectedAtFraction float64
}

// SkewDetectResult quantifies Section 5.4's remark that "the detection time
// for the failure of the PAD mode is random and depends on the arrival
// order of the tuples": the later the overflow fires, the more work the
// fallback throws away.
type SkewDetectResult struct {
	Tuples int
	Points []SkewDetectPoint
}

// RunSkewDetect partitions Zipf-skewed relations in PAD mode across several
// seeds and records when (if at all) the overflow aborts the run.
func RunSkewDetect(cfg Config) (*SkewDetectResult, error) {
	cfg = cfg.WithDefaults()
	// Keep ≥512 tuples per partition so the 15% padding, not sampling
	// noise, decides overflow.
	n := max(int(16e6*cfg.Scale), 1<<19)
	// 1024 partitions keeps tuples/partition high enough at reduced scale
	// that the padding, not the flush's partial lines, decides overflow —
	// the regime the paper's full-scale runs are in.
	p, err := partition.NewFPGA(partition.FPGAOptions{
		Partitions: 1024, Hash: true, Format: partition.PadMode, PadFraction: 0.15,
		DisableFallback: true,
	})
	if err != nil {
		return nil, err
	}
	res := &SkewDetectResult{Tuples: n}
	for _, zipf := range []float64{0.1, 0.25, 0.5, 1.0} {
		for s := int64(0); s < 5; s++ {
			g := workload.NewGenerator(cfg.Seed + s)
			rel, err := g.ZipfRelation(zipf, n, 8, n)
			if err != nil {
				return nil, err
			}
			pt := SkewDetectPoint{ZipfFactor: zipf, Seed: cfg.Seed + s, DetectedAtFraction: 1}
			var fb *partition.FallbackError
			if _, err := p.Partition(rel); errors.As(err, &fb) && fb.Stats.Overflowed {
				pt.Overflowed = true
				pt.DetectedAtFraction = float64(fb.Stats.OverflowAtTuple) / float64(n)
			} else if err != nil && !errors.Is(err, partition.ErrDummyKey) {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// Notes counts the overflowing seeds per Zipf factor.
func (res *SkewDetectResult) Notes() []string {
	out := []string{fmt.Sprintf("%d tuples, 1024 partitions, 15%% padding, 5 seeds per factor", res.Tuples)}
	for i := 0; i < len(res.Points); {
		zipf, runs, overflows := res.Points[i].ZipfFactor, 0, 0
		for ; i < len(res.Points) && res.Points[i].ZipfFactor == zipf; i++ {
			runs++
			if res.Points[i].Overflowed {
				overflows++
			}
		}
		out = append(out, fmt.Sprintf("zipf %g: %d/%d runs overflowed", zipf, overflows, runs))
	}
	return append(out,
		"paper: PAD fails beyond a mild Zipf factor for realistic padding; detection point is",
		"random — in the worst case at the very end of the run")
}

// CSV has one record per (factor, seed) run.
func (res *SkewDetectResult) CSV() [][]string {
	rows := [][]string{{"zipf", "seed", "overflowed", "detected_at_fraction"}}
	for _, p := range res.Points {
		rows = append(rows, []string{f(p.ZipfFactor), d(p.Seed), strconv.FormatBool(p.Overflowed), f(p.DetectedAtFraction)})
	}
	return rows
}

// FutureResult compares partitioning throughput on today's Xeon+FPGA link
// against the paper's outlook platforms (Section 4.8 / 6).
type FutureResult struct {
	Tuples int
	Rows   []FutureRow
}

// FutureRow is one platform's PAD/RID throughput.
type FutureRow struct {
	Platform    string
	MTuplesPerS float64
}

// RunFuture runs PAD/RID on the three platform models.
func RunFuture(cfg Config) (*FutureResult, error) {
	cfg = cfg.WithDefaults()
	n := max(int(64e6*cfg.Scale), 1<<18)
	rel, err := workload.NewGenerator(cfg.Seed).Relation(workload.Random, 8, n)
	if err != nil {
		return nil, err
	}
	res := &FutureResult{Tuples: n}
	for _, plat := range []*platform.Platform{
		platform.XeonFPGA(), platform.RawFPGA(), platform.FutureIntegrated(),
	} {
		p, err := partition.NewFPGA(partition.FPGAOptions{
			Partitions: 8192, Hash: true, Format: partition.PadMode,
			PadFraction: 0.5, Platform: plat,
		})
		if err != nil {
			return nil, err
		}
		r, err := p.Partition(rel.Clone())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FutureRow{
			Platform:    plat.Name,
			MTuplesPerS: float64(n) / r.Elapsed().Seconds() / 1e6,
		})
	}
	return res, nil
}

func (res *FutureResult) Notes() []string {
	return []string{
		fmt.Sprintf("%d tuples", res.Tuples),
		"paper: with ≥25.6 GB/s the circuit term (Section 4.8's B_FPGA) dominates;",
		"hardened next to the CPU it would clock past that",
	}
}

func (res *FutureResult) CSV() [][]string {
	rows := [][]string{{"platform", "mtuples_per_s"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Platform, f(r.MTuplesPerS)})
	}
	return rows
}

// CompressRow is one run-length configuration of the compression sweep.
type CompressRow struct {
	AvgRunLength int
	Ratio        float64
	PlainMTps    float64 // plain VRID partitioning
	CompMTps     float64 // compressed-input partitioning
}

// CompressResult sweeps compressibility for the in-pipeline decompression
// extension (Section 6: "decompression ... for free on the FPGA").
type CompressResult struct {
	Tuples int
	Rows   []CompressRow
}

// RunCompress partitions the same logical column as raw keys and as an
// RLE-compressed column at several run lengths.
func RunCompress(cfg Config) (*CompressResult, error) {
	cfg = cfg.WithDefaults()
	// Enough tuples that the fixed flush cost fades, and a moderate fan-out
	// so the sweep isolates the read-traffic effect.
	n := max(int(32e6*cfg.Scale), 1<<20)
	res := &CompressResult{Tuples: n}
	for _, runLen := range []int{1, 4, 16, 64} {
		keys := make([]uint32, n)
		g := workload.NewGenerator(cfg.Seed)
		if err := g.Keys(workload.Random, keys); err != nil {
			return nil, err
		}
		// Stretch each random key into a run.
		for i := range keys {
			keys[i] = keys[i/runLen*runLen]
		}
		col := codec.CompressRLE(keys)
		rel, err := workload.FromKeys(keys, 8)
		if err != nil {
			return nil, err
		}
		plainP, err := partition.NewFPGA(partition.FPGAOptions{
			Partitions: 1024, Hash: true, Format: partition.HistMode, Layout: partition.ColumnStore,
		})
		if err != nil {
			return nil, err
		}
		plain, err := plainP.Partition(rel.ToColumns())
		if err != nil {
			return nil, err
		}
		comp, err := partition.FPGACompressed(partition.FPGAOptions{
			Partitions: 1024, Hash: true, Format: partition.HistMode, Layout: partition.ColumnStore,
		}, col)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, CompressRow{
			AvgRunLength: runLen,
			Ratio:        col.Ratio(),
			PlainMTps:    float64(n) / plain.Elapsed().Seconds() / 1e6,
			CompMTps:     float64(n) / comp.Elapsed().Seconds() / 1e6,
		})
	}
	return res, nil
}

func (res *CompressResult) Notes() []string {
	return []string{
		fmt.Sprintf("%d tuples; RLE-compressed key column vs raw keys", res.Tuples),
		"shape: saved read bandwidth becomes throughput until the circuit limit;",
		"incompressible columns (run length 1: RLE ratio 0.5) cost extra reads.",
		"HIST's histogram pass is circuit-bound at one group/cycle, capping the",
		"speedup near 1.15x on this link; PAD mode would reach ~1.25x",
	}
}

func (res *CompressResult) CSV() [][]string {
	rows := [][]string{{"run_length", "rle_ratio", "plain_mtps", "compressed_mtps"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.AvgRunLength), f(r.Ratio), f(r.PlainMTps), f(r.CompMTps)})
	}
	return rows
}

// DistributedResult sweeps cluster sizes for the distributed join.
type DistributedResult struct {
	TuplesPerRelation int
	Rows              []DistributedRow
}

// DistributedRow is one (nodes, backend) configuration.
type DistributedRow struct {
	Nodes          int
	FPGA           bool
	PartitionSec   float64
	ExchangeSec    float64
	JoinSec        float64
	TotalSec       float64
	BytesExchanged int64
	// JoinTuples is the most-loaded node's build+probe input: what JoinSec,
	// host-measured, is the time of. The tests assert on it; it is not rendered.
	JoinTuples int64
}

func (r DistributedRow) backend() string {
	if r.FPGA {
		return "fpga"
	}
	return "cpu"
}

// RunDistributed joins a linear workload across 1–8 simulated nodes with
// CPU and FPGA per-node partitioning (Section 6's RDMA outlook).
func RunDistributed(cfg Config) (*DistributedResult, error) {
	cfg = cfg.WithDefaults()
	n := max(int(32e6*cfg.Scale), 1<<16)
	spec := workload.WorkloadSpec{ID: "dist", TuplesR: n, TuplesS: n, Distribution: workload.Linear}
	in, err := spec.Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &DistributedResult{TuplesPerRelation: n}
	for _, nodes := range []int{1, 2, 4, 8} {
		for _, fpga := range []bool{false, true} {
			r, err := distjoin.Join(in.R, in.S, distjoin.Options{
				Nodes:             nodes,
				PartitionsPerNode: 8192 / nodes,
				Threads:           cfg.MaxThreads,
				UseFPGA:           fpga,
				Format:            partition.HistMode,
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, DistributedRow{
				Nodes:          nodes,
				FPGA:           fpga,
				PartitionSec:   r.PartitionTime.Seconds(),
				ExchangeSec:    r.ExchangeTime.Seconds(),
				JoinSec:        r.JoinTime.Seconds(),
				TotalSec:       r.Total.Seconds(),
				BytesExchanged: r.BytesExchanged,
				JoinTuples:     r.JoinTuples,
			})
		}
	}
	return res, nil
}

func (res *DistributedResult) Notes() []string {
	return []string{
		fmt.Sprintf("%d ⋈ %d tuples, FDR fabric", res.TuplesPerRelation, res.TuplesPerRelation),
		"shape: partition and join times shrink ~linearly with nodes; exchange traffic",
		"grows with the off-node fraction (n-1)/n",
	}
}

func (res *DistributedResult) CSV() [][]string {
	rows := [][]string{{"nodes", "backend", "partition_s", "exchange_s", "join_s", "total_s", "bytes_exchanged"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.Nodes), r.backend(), f(r.PartitionSec), f(r.ExchangeSec), f(r.JoinSec), f(r.TotalSec), d(r.BytesExchanged)})
	}
	return rows
}
