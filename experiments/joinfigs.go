package experiments

import (
	"fmt"
	"io"
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

func (res *Figure10Result) Text(w io.Writer) {
	header(w, "Figure 10: join time vs number of partitions (workload A)")
	fmt.Fprintf(w, "R: %d tuples, S: %d tuples\n", res.Workload.TuplesR, res.Workload.TuplesS)
	printJoinPoints(w, res.Points, true)
	fmt.Fprintln(w, "paper shape: CPU partitioning grows with fan-out (1-thread); FPGA partitioning is flat;")
	fmt.Fprintln(w, "             build+probe shrinks with fan-out; hybrid build+probe pays the snoop penalty")
}

func (res *Figure10Result) CSV() [][]string {
	rows := [][]string{joinHeader(true)}
	for _, p := range res.Points {
		rows = append(rows, joinRow(p, true, ""))
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

// text prints one table per workload, each under its title.
func (res *joinSweep) text(w io.Writer, title func(workload.WorkloadID, workload.WorkloadSpec) string) {
	for _, id := range res.ids {
		header(w, title(id, res.Specs[id]))
		printJoinPoints(w, res.Results[id], false)
	}
}

// CSV renders the points per workload, in the order text prints them.
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

func (res *Figure11Result) Text(w io.Writer) {
	res.text(w, func(id workload.WorkloadID, spec workload.WorkloadSpec) string {
		return fmt.Sprintf("Figure 11: join time vs threads (workload %s: %d ⋈ %d)", id, spec.TuplesR, spec.TuplesS)
	})
	fmt.Fprintln(w, "\npaper shape: VRID partitions fastest (half the reads); hybrid build+probe is")
	fmt.Fprintln(w, "coherence-penalized; CPU and hybrid converge at full thread count")
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

func (res *Figure12Result) Text(w io.Writer) {
	res.text(w, func(id workload.WorkloadID, spec workload.WorkloadSpec) string {
		return fmt.Sprintf("Figure 12: join vs threads (workload %s, %v keys)", id, spec.Distribution)
	})
	fmt.Fprintln(w, "\npaper shape: hash partitioning speeds build+probe on grid keys (D: ~11%, E: ~35%)")
	fmt.Fprintln(w, "but costs CPU partitioning time at low thread counts; free on the FPGA")
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

func (res *Figure13Result) Text(w io.Writer) {
	header(w, "Figure 13: join time vs Zipf factor of S (workload A sizes, HIST/RID)")
	fmt.Fprintf(w, "%-6s %-16s %10s %12s %10s %12s\n", "zipf", "system", "part (s)", "build+probe", "total", "model part")
	for i, p := range res.Points {
		modelStr := "-"
		if p.ModelPartitionSec > 0 {
			modelStr = fmt.Sprintf("%.4f", p.ModelPartitionSec)
		}
		fmt.Fprintf(w, "%-6.2f %-16s %10.4f %12.4f %10.4f %12s\n",
			res.Factors[i], p.System, p.PartitionSec, p.BuildProbeSec, p.TotalSec, modelStr)
	}
	fmt.Fprintln(w, "paper shape: HIST (two passes) loses to CPU partitioning on this link; skew shortens")
	fmt.Fprintln(w, "build+probe for both (hot keys hit cached chains)")
}

func (res *Figure13Result) CSV() [][]string {
	rows := [][]string{{"zipf", "system", "partition_s", "build_probe_s", "total_s", "model_partition_s"}}
	for i, p := range res.Points {
		rows = append(rows, []string{f(res.Factors[i]), p.System, f(p.PartitionSec), f(p.BuildProbeSec), f(p.TotalSec), f(p.ModelPartitionSec)})
	}
	return rows
}

// printJoinPoints renders a breakdown table.
func printJoinPoints(w io.Writer, points []JoinPoint, withParts bool) {
	if withParts {
		fmt.Fprintf(w, "%-8s %-16s %8s %10s %12s %10s %12s\n",
			"parts", "system", "threads", "part (s)", "build+probe", "total", "model part")
	} else {
		fmt.Fprintf(w, "%-16s %8s %10s %12s %10s %12s\n",
			"system", "threads", "part (s)", "build+probe", "total", "model part")
	}
	for _, p := range points {
		modelStr := "-"
		if p.ModelPartitionSec > 0 {
			modelStr = fmt.Sprintf("%.4f", p.ModelPartitionSec)
		}
		note := ""
		if p.FellBack {
			note = " (fell back)"
		}
		if withParts {
			fmt.Fprintf(w, "%-8d %-16s %8d %10.4f %12.4f %10.4f %12s%s\n",
				p.Partitions, p.System, p.Threads, p.PartitionSec, p.BuildProbeSec, p.TotalSec, modelStr, note)
		} else {
			fmt.Fprintf(w, "%-16s %8d %10.4f %12.4f %10.4f %12s%s\n",
				p.System, p.Threads, p.PartitionSec, p.BuildProbeSec, p.TotalSec, modelStr, note)
		}
	}
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
