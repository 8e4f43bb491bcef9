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

func toPoint(system string, r *hashjoin.Result, parts int) JoinPoint {
	return JoinPoint{
		System:        system,
		Threads:       r.Threads,
		Partitions:    parts,
		PartitionSec:  r.PartitionTime().Seconds(),
		BuildProbeSec: r.BuildProbeTime().Seconds(),
		TotalSec:      r.Total.Seconds(),
		Matches:       r.Matches,
		FellBack:      r.FellBack,
	}
}

// hybridModelSec predicts the FPGA partitioning time of both relations.
func hybridModelSec(m model.Mode, nR, nS int) float64 {
	p := platform.XeonFPGA()
	return model.JoinPrediction(m, p, int64(nR)) + model.JoinPrediction(m, p, int64(nS))
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
	in, err := spec.Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Figure10Result{Workload: spec}
	threadCases := []int{1, cfg.MaxThreads}
	if cfg.MaxThreads == 1 {
		threadCases = []int{1}
	}
	for _, parts := range []int{256, 512, 1024, 2048, 4096, 8192} {
		for _, threads := range threadCases {
			cpu, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{
				Partitions: parts, Threads: threads, Hash: false,
			})
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, toPoint("cpu", cpu, parts))

			hyb, err := hashjoin.Hybrid(in.R, in.S, hashjoin.Options{
				Partitions: parts, Threads: threads, Hash: false,
				Format: partition.PadMode, PadFraction: 0.5,
			})
			if err != nil {
				return nil, err
			}
			pt := toPoint("fpga-PAD/RID", hyb, parts)
			pt.ModelPartitionSec = hybridModelSec(model.Mode{}, spec.TuplesR, spec.TuplesS)
			res.Points = append(res.Points, pt)
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

// figure11Workloads and figure12Workloads fix the order in which the
// thread-sweep figures run, print and export their workloads.
var (
	figure11Workloads = []workload.WorkloadID{workload.WorkloadA, workload.WorkloadB}
	figure12Workloads = []workload.WorkloadID{workload.WorkloadC, workload.WorkloadD, workload.WorkloadE}
)

// Figure11Result: join time vs threads (workloads A and B).
type Figure11Result struct {
	Results map[workload.WorkloadID][]JoinPoint
	Specs   map[workload.WorkloadID]workload.WorkloadSpec
}

// RunFigure11 sweeps threads on workloads A and B with the pure CPU join
// and the hybrid join in PAD/RID and PAD/VRID modes.
func RunFigure11(cfg Config) (*Figure11Result, error) {
	cfg = cfg.WithDefaults()
	res := &Figure11Result{
		Results: map[workload.WorkloadID][]JoinPoint{},
		Specs:   map[workload.WorkloadID]workload.WorkloadSpec{},
	}
	const parts = 8192
	for _, id := range figure11Workloads {
		spec, err := workload.Spec(id)
		if err != nil {
			return nil, err
		}
		spec = spec.Scaled(cfg.Scale)
		res.Specs[id] = spec
		in, err := spec.Generate(cfg.Seed)
		if err != nil {
			return nil, err
		}
		rCol, sCol := in.R.ToColumns(), in.S.ToColumns()
		for _, threads := range cfg.threadSweep() {
			cpu, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: parts, Threads: threads})
			if err != nil {
				return nil, err
			}
			res.Results[id] = append(res.Results[id], toPoint("cpu", cpu, parts))

			rid, err := hashjoin.Hybrid(in.R, in.S, hashjoin.Options{
				Partitions: parts, Threads: threads, Hash: true,
				Format: partition.PadMode, PadFraction: 0.5,
			})
			if err != nil {
				return nil, err
			}
			pt := toPoint("fpga-PAD/RID", rid, parts)
			pt.ModelPartitionSec = hybridModelSec(model.Mode{}, spec.TuplesR, spec.TuplesS)
			res.Results[id] = append(res.Results[id], pt)

			vrid, err := hashjoin.Hybrid(rCol, sCol, hashjoin.Options{
				Partitions: parts, Threads: threads, Hash: true,
				Format: partition.PadMode, Layout: partition.ColumnStore, PadFraction: 0.5,
			})
			if err != nil {
				return nil, err
			}
			pt = toPoint("fpga-PAD/VRID", vrid, parts)
			pt.ModelPartitionSec = hybridModelSec(model.Mode{VRID: true}, spec.TuplesR, spec.TuplesS)
			res.Results[id] = append(res.Results[id], pt)
		}
	}
	return res, nil
}

func (res *Figure11Result) Text(w io.Writer) {
	for _, id := range figure11Workloads {
		spec := res.Specs[id]
		header(w, fmt.Sprintf("Figure 11: join time vs threads (workload %s: %d ⋈ %d)", id, spec.TuplesR, spec.TuplesS))
		printJoinPoints(w, res.Results[id], false)
	}
	fmt.Fprintln(w, "\npaper shape: VRID partitions fastest (half the reads); hybrid build+probe is")
	fmt.Fprintln(w, "coherence-penalized; CPU and hybrid converge at full thread count")
}

func (res *Figure11Result) CSV() [][]string {
	return threadSweepCSV(figure11Workloads, res.Results)
}

// Figure12Result: join time vs threads for workloads C, D, E with radix vs
// hash partitioning.
type Figure12Result struct {
	Results map[workload.WorkloadID][]JoinPoint
	Specs   map[workload.WorkloadID]workload.WorkloadSpec
}

// RunFigure12 compares CPU radix, CPU hash and FPGA hash partitioning
// within the join on the random/grid/reverse-grid workloads.
func RunFigure12(cfg Config) (*Figure12Result, error) {
	cfg = cfg.WithDefaults()
	res := &Figure12Result{
		Results: map[workload.WorkloadID][]JoinPoint{},
		Specs:   map[workload.WorkloadID]workload.WorkloadSpec{},
	}
	const parts = 8192
	for _, id := range figure12Workloads {
		spec, err := workload.Spec(id)
		if err != nil {
			return nil, err
		}
		spec = spec.Scaled(cfg.Scale)
		res.Specs[id] = spec
		in, err := spec.Generate(cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, threads := range cfg.threadSweep() {
			radix, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: parts, Threads: threads, Hash: false})
			if err != nil {
				return nil, err
			}
			res.Results[id] = append(res.Results[id], toPoint("cpu-radix", radix, parts))

			hash, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: parts, Threads: threads, Hash: true})
			if err != nil {
				return nil, err
			}
			res.Results[id] = append(res.Results[id], toPoint("cpu-hash", hash, parts))

			hyb, err := hashjoin.Hybrid(in.R, in.S, hashjoin.Options{
				Partitions: parts, Threads: threads, Hash: true,
				Format: partition.PadMode, PadFraction: 0.5,
			})
			if err != nil {
				return nil, err
			}
			pt := toPoint("fpga-hash", hyb, parts)
			pt.ModelPartitionSec = hybridModelSec(model.Mode{}, spec.TuplesR, spec.TuplesS)
			res.Results[id] = append(res.Results[id], pt)
		}
	}
	return res, nil
}

func (res *Figure12Result) Text(w io.Writer) {
	for _, id := range figure12Workloads {
		spec := res.Specs[id]
		header(w, fmt.Sprintf("Figure 12: join vs threads (workload %s, %v keys)", id, spec.Distribution))
		printJoinPoints(w, res.Results[id], false)
	}
	fmt.Fprintln(w, "\npaper shape: hash partitioning speeds build+probe on grid keys (D: ~11%, E: ~35%)")
	fmt.Fprintln(w, "but costs CPU partitioning time at low thread counts; free on the FPGA")
}

func (res *Figure12Result) CSV() [][]string {
	return threadSweepCSV(figure12Workloads, res.Results)
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
	const parts = 8192
	for _, zipf := range []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75} {
		in, err := spec.GenerateSkewed(cfg.Seed, zipf)
		if err != nil {
			return nil, err
		}
		cpu, err := hashjoin.CPU(in.R, in.S, hashjoin.Options{Partitions: parts, Threads: cfg.MaxThreads, Hash: true})
		if err != nil {
			return nil, err
		}
		pt := toPoint("cpu", cpu, parts)
		res.Points = append(res.Points, pt)
		res.Factors = append(res.Factors, zipf)

		hyb, err := hashjoin.Hybrid(in.R, in.S, hashjoin.Options{
			Partitions: parts, Threads: cfg.MaxThreads, Hash: true,
			Format: partition.HistMode,
		})
		if err != nil {
			return nil, err
		}
		pt = toPoint("fpga-HIST/RID", hyb, parts)
		pt.ModelPartitionSec = hybridModelSec(model.Mode{Hist: true}, spec.TuplesR, spec.TuplesS)
		res.Points = append(res.Points, pt)
		res.Factors = append(res.Factors, zipf)
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

// threadSweepCSV renders the per-workload points of Figures 11 and 12 in the
// order of ids, the order Text prints them in.
func threadSweepCSV(ids []workload.WorkloadID, results map[workload.WorkloadID][]JoinPoint) [][]string {
	rows := [][]string{joinHeader(false)}
	for _, id := range ids {
		for _, p := range results[id] {
			rows = append(rows, joinRow(p, false, string(id)))
		}
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
