package partserver

import (
	"fmt"

	"fpgapart/internal/hashutil"
	"fpgapart/partition"
	"fpgapart/workload"
)

// joinFraction is the fraction of generated jobs that carry a probe side,
// twice the build size.
const joinFraction = 0.25

// TraceOptions shapes GenerateTrace's synthetic job mix.
type TraceOptions struct {
	// MinTuples/MaxTuples bound the per-job relation size (defaults
	// 1<<10 and 1<<14).
	MinTuples, MaxTuples int
	// MeanGapUS is the mean virtual inter-arrival gap (default 500).
	MeanGapUS int64
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.MinTuples == 0 {
		o.MinTuples = 1 << 10
	}
	if o.MaxTuples == 0 {
		o.MaxTuples = 1 << 14
	}
	if o.MeanGapUS == 0 {
		o.MeanGapUS = 500
	}
	return o
}

// GenerateTrace builds a deterministic multi-tenant job trace: n jobs with
// hash-derived sizes, fan-outs, modes and arrival gaps. The same (seed, n,
// opts) always yields the same trace — it is the shared workload of the
// perfbench scheduler suite, cmd/partserver, and the golden conformance
// test. n must not be negative and, once defaults are filled in, sizes must
// be at least one tuple with MaxTuples ≥ MinTuples, and the gap must not be
// negative.
func GenerateTrace(seed uint64, n int, opts TraceOptions) ([]Job, error) {
	opts = opts.withDefaults()
	if n < 0 || opts.MinTuples < 1 || opts.MaxTuples < opts.MinTuples || opts.MeanGapUS < 0 {
		return nil, fmt.Errorf("partserver: %d jobs, options %+v: need n ≥ 0, 1 ≤ MinTuples ≤ MaxTuples and MeanGapUS ≥ 0", n, opts)
	}
	fanOuts := []int{4, 8, 16, 32, 64}
	jobs := make([]Job, 0, n)
	arrival := int64(0)
	// One key generator, reseeded per job: a math/rand source is 4.9 KB.
	gen := workload.NewGenerator(0)
	for i := 0; i < n; i++ {
		draw := func(purpose uint64) uint64 {
			return hashutil.SplitMix64(seed ^ hashutil.SplitMix64(uint64(i)<<8|purpose))
		}
		span := opts.MaxTuples - opts.MinTuples + 1
		size := opts.MinTuples + int(draw(1)%uint64(span))
		j := Job{
			FanOut:    fanOuts[draw(2)%uint64(len(fanOuts))],
			Hash:      draw(3)%2 == 0,
			ArrivalUS: arrival,
		}
		if draw(4)%4 == 0 {
			j.Format = partition.PadMode
		}
		gen.Seed(int64(draw(5) >> 1))
		rel, err := gen.Relation(workload.Random, 8, size)
		if err != nil {
			return nil, err
		}
		isJoin := float64(draw(6)%1000)/1000 < joinFraction
		if !isJoin && draw(7)%4 == 0 {
			// Column-store (VRID) partition job. Join jobs stay row-layout:
			// the VRID payload is a position, not a join attribute.
			j.Layout = partition.ColumnStore
			rel = rel.ToColumns()
		}
		j.Rel = rel
		if isJoin {
			// The probe side cycles the build side's keys (a foreign-key
			// join), so the join produces matches deterministically.
			probe, err := workload.NewRelation(workload.RowLayout, 8, 2*size)
			if err != nil {
				return nil, err
			}
			for k := 0; k < probe.NumTuples; k++ {
				probe.SetTuple(k, rel.Key(k%size), uint32(draw(10)>>32)+uint32(k))
			}
			j.Probe = probe
		}
		jobs = append(jobs, j)
		arrival += int64(draw(9) % uint64(2*opts.MeanGapUS+1))
	}
	return jobs, nil
}
