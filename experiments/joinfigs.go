package experiments

import (
	"fmt"
	"strconv"

	"fpgapart/hashjoin"
	"fpgapart/internal/model"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// JoinPoint is one join measurement with its phase breakdown in seconds.
type JoinPoint struct {
	System     string // "cpu", "fpga-PAD/RID", ...
	Threads    int
	Partitions int

	PartitionSec  float64
	BuildProbeSec float64
	TotalSec      float64
	Matches       int64
	FellBack      bool

	// ModelPartitionSec is the cost model's prediction of the FPGA
	// partitioning time for both relations (0 for CPU joins).
	ModelPartitionSec float64
}

// joinSystem is one series of the join figures: the CPU join, or the
// hybrid join with the circuit in one mode (PAD with 50% headroom). A hybrid
// series is named "fpga-" and its mode unless name is set.
type joinSystem struct {
	name   string
	hybrid bool
	hash   bool
	FPGAMode
}

// joinInput is one workload's relations. The key columns the VRID series
// partition are converted on first use and kept for the rest of the sweep.
type joinInput struct {
	*workload.JoinInput
	cols *workload.JoinInput
}

// run joins in at the given fan-out and thread count. A hybrid point carries
// the cost model's partitioning time of both relations in the run's own
// mode; a VRID run partitions the relations' key columns.
func (js joinSystem) run(in *joinInput, parts, threads int) (JoinPoint, error) {
	opts := hashjoin.Options{Partitions: parts, Threads: threads, Hash: js.hash}
	join, rel, name := hashjoin.CPU, in.JoinInput, js.name
	if js.hybrid {
		join = hashjoin.Hybrid
		opts.Format, opts.Layout, opts.PadFraction = js.Format, js.Layout, 0.5
		if js.Layout == partition.ColumnStore {
			if in.cols == nil {
				in.cols = &workload.JoinInput{R: in.R.ToColumns(), S: in.S.ToColumns()}
			}
			rel = in.cols
		}
		if name == "" {
			name = "fpga-" + js.Name()
		}
	}
	res, err := join(rel.R, rel.S, opts)
	if err != nil {
		return JoinPoint{}, err
	}
	pt := JoinPoint{
		System:        name,
		Threads:       res.Threads,
		Partitions:    parts,
		PartitionSec:  res.PartitionTime().Seconds(),
		BuildProbeSec: res.BuildProbeTime().Seconds(),
		TotalSec:      res.Total.Seconds(),
		Matches:       res.Matches,
		FellBack:      res.FellBack,
	}
	if js.hybrid {
		m, xeon := model.ModeOf(js.Format, js.Layout), platform.XeonFPGA()
		pt.ModelPartitionSec = model.JoinPrediction(m, xeon, int64(in.R.NumTuples)) +
			model.JoinPrediction(m, xeon, int64(in.S.NumTuples))
	}
	return pt, nil
}

// Figure10Result: join time vs number of partitions (workload A), single
// and multi threaded.
type Figure10Result struct {
	Workload workload.WorkloadSpec
	Points   []JoinPoint
}

// RunFigure10 sweeps the fan-out from 256 to 8192 on workload A for the CPU
// join and the hybrid join (PAD/RID — the workload has no skew).
func RunFigure10(cfg Config) (*Figure10Result, error) {
	cfg = cfg.WithDefaults()
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(cfg.Scale)
	gen, err := spec.Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	in := &joinInput{JoinInput: gen}
	res := &Figure10Result{Workload: spec}
	threadCases := []int{1, cfg.MaxThreads}
	if cfg.MaxThreads == 1 {
		threadCases = []int{1}
	}
	for _, parts := range []int{256, 512, 1024, 2048, 4096, 8192} {
		for _, threads := range threadCases {
			for _, js := range []joinSystem{
				{name: "cpu"},
				{hybrid: true, FPGAMode: FPGAMode{Format: partition.PadMode}},
			} {
				pt, err := js.run(in, parts, threads)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, pt)
			}
		}
	}
	return res, nil
}

func (res *Figure10Result) Notes() []string {
	return []string{
		fmt.Sprintf("R: %d tuples, S: %d tuples", res.Workload.TuplesR, res.Workload.TuplesS),
		"paper shape: CPU partitioning grows with fan-out (1-thread); FPGA partitioning is flat;",
		"build+probe shrinks with fan-out; hybrid build+probe pays the snoop penalty",
	}
}

func (res *Figure10Result) CSV() [][]string {
	rows := [][]string{joinHeader(true)}
	for _, p := range res.Points {
		rows = append(rows, joinRow(p, true, string(res.Workload.ID)))
	}
	return rows
}

// joinSweep is what Figures 11 and 12 measure: every system at every thread
// count of the sweep, 8192 partitions, on each workload.
type joinSweep struct {
	Results map[workload.WorkloadID][]JoinPoint
	Specs   map[workload.WorkloadID]workload.WorkloadSpec
	// ids is the order the figure runs, prints and exports its workloads in.
	ids []workload.WorkloadID
}

func runJoinSweep(cfg Config, ids []workload.WorkloadID, systems ...joinSystem) (joinSweep, error) {
	cfg = cfg.WithDefaults()
	res := joinSweep{
		Results: map[workload.WorkloadID][]JoinPoint{},
		Specs:   map[workload.WorkloadID]workload.WorkloadSpec{},
		ids:     ids,
	}
	for _, id := range ids {
		spec, err := workload.Spec(id)
		if err != nil {
			return res, err
		}
		spec = spec.Scaled(cfg.Scale)
		res.Specs[id] = spec
		gen, err := spec.Generate(cfg.Seed)
		if err != nil {
			return res, err
		}
		in := &joinInput{JoinInput: gen}
		for _, threads := range cfg.threadSweep() {
			for _, js := range systems {
				pt, err := js.run(in, 8192, threads)
				if err != nil {
					return res, err
				}
				res.Results[id] = append(res.Results[id], pt)
			}
		}
	}
	return res, nil
}

// sizes gives each workload's relations, one note line per workload.
func (res *joinSweep) sizes() []string {
	var out []string
	for _, id := range res.ids {
		spec := res.Specs[id]
		out = append(out, fmt.Sprintf("workload %s: %d ⋈ %d tuples, %v keys", id, spec.TuplesR, spec.TuplesS, spec.Distribution))
	}
	return out
}

// CSV renders the points per workload, in the order the figure runs them.
func (res *joinSweep) CSV() [][]string {
	rows := [][]string{joinHeader(false)}
	for _, id := range res.ids {
		for _, p := range res.Results[id] {
			rows = append(rows, joinRow(p, false, string(id)))
		}
	}
	return rows
}

// Figure11Result: join time vs threads (workloads A and B).
type Figure11Result struct{ joinSweep }

// RunFigure11 sweeps threads on workloads A and B with the pure CPU join
// and the hybrid join in PAD/RID and PAD/VRID modes.
func RunFigure11(cfg Config) (*Figure11Result, error) {
	sweep, err := runJoinSweep(cfg, []workload.WorkloadID{workload.WorkloadA, workload.WorkloadB},
		joinSystem{name: "cpu"},
		joinSystem{hybrid: true, hash: true, FPGAMode: FPGAMode{Format: partition.PadMode}},
		joinSystem{hybrid: true, hash: true, FPGAMode: FPGAMode{Format: partition.PadMode, Layout: partition.ColumnStore}},
	)
	if err != nil {
		return nil, err
	}
	return &Figure11Result{sweep}, nil
}

func (res *Figure11Result) Notes() []string {
	return append(res.sizes(),
		"paper shape: VRID partitions fastest (half the reads); hybrid build+probe is",
		"coherence-penalized; CPU and hybrid converge at full thread count")
}

// Figure12Result: join time vs threads for workloads C, D, E with radix vs
// hash partitioning.
type Figure12Result struct{ joinSweep }

// RunFigure12 compares CPU radix, CPU hash and FPGA hash partitioning
// within the join on the random/grid/reverse-grid workloads.
func RunFigure12(cfg Config) (*Figure12Result, error) {
	sweep, err := runJoinSweep(cfg, []workload.WorkloadID{workload.WorkloadC, workload.WorkloadD, workload.WorkloadE},
		joinSystem{name: "cpu-radix"},
		joinSystem{name: "cpu-hash", hash: true},
		joinSystem{name: "fpga-hash", hybrid: true, hash: true, FPGAMode: FPGAMode{Format: partition.PadMode}},
	)
	if err != nil {
		return nil, err
	}
	return &Figure12Result{sweep}, nil
}

func (res *Figure12Result) Notes() []string {
	return append(res.sizes(),
		"paper shape: hash partitioning speeds build+probe on grid keys (D: ~11%, E: ~35%)",
		"but costs CPU partitioning time at low thread counts; free on the FPGA")
}

// Figure13Result: join time vs Zipf factor of S (workload A sizes).
type Figure13Result struct {
	Points  []JoinPoint
	Factors []float64
}

// RunFigure13 skews relation S with Zipf factors 0.25–1.75 and joins with
// the CPU and the hybrid join in HIST/RID mode (PAD would overflow beyond
// factor 0.25, Section 5.4).
func RunFigure13(cfg Config) (*Figure13Result, error) {
	cfg = cfg.WithDefaults()
	spec, err := workload.Spec(workload.WorkloadA)
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(cfg.Scale)
	res := &Figure13Result{}
	for _, zipf := range []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75} {
		gen, err := spec.GenerateSkewed(cfg.Seed, zipf)
		if err != nil {
			return nil, err
		}
		in := &joinInput{JoinInput: gen}
		for _, js := range []joinSystem{
			{name: "cpu", hash: true},
			{hybrid: true, hash: true, FPGAMode: FPGAMode{Format: partition.HistMode}},
		} {
			pt, err := js.run(in, 8192, cfg.MaxThreads)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
			res.Factors = append(res.Factors, zipf)
		}
	}
	return res, nil
}

func (res *Figure13Result) Notes() []string {
	return []string{
		"paper shape: HIST (two passes) loses to CPU partitioning on this link; skew shortens",
		"build+probe for both (hot keys hit cached chains)",
	}
}

func (res *Figure13Result) CSV() [][]string {
	rows := [][]string{{"zipf", "system", "partition_s", "build_probe_s", "total_s", "model_partition_s"}}
	for i, p := range res.Points {
		rows = append(rows, []string{f(res.Factors[i]), p.System, f(p.PartitionSec), f(p.BuildProbeSec), f(p.TotalSec), f(p.ModelPartitionSec)})
	}
	return rows
}

func joinHeader(withParts bool) []string {
	cols := []string{"workload", "system", "threads", "partition_s", "build_probe_s", "total_s", "model_partition_s", "fell_back"}
	if withParts {
		cols = append([]string{"partitions"}, cols...)
	}
	return cols
}

func joinRow(p JoinPoint, withParts bool, id string) []string {
	row := []string{id, p.System, strconv.Itoa(p.Threads), f(p.PartitionSec),
		f(p.BuildProbeSec), f(p.TotalSec), f(p.ModelPartitionSec), strconv.FormatBool(p.FellBack)}
	if withParts {
		row = append([]string{strconv.Itoa(p.Partitions)}, row...)
	}
	return row
}
