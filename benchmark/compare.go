package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// ResultSet is one complete set of runs: every workload untraced, then
// traced, on one tree. run.sh writes it as benchmark/out/results.json.
type ResultSet struct {
	Env       Env           `json:"env"`
	Workloads []WorkloadRow `json:"workloads"`
}

// Env records where a result set was measured.
type Env struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// WorkloadRow pairs a workload's two runs.
type WorkloadRow struct {
	Name     string  `json:"name"`
	Untraced *Result `json:"untraced"`
	Traced   *Result `json:"traced,omitempty"`
}

// endToEnd returns the row's end-to-end metrics: the untraced run's, plus
// those only a traced run computes (sim_model_err_pct).
func (r WorkloadRow) endToEnd() metricSet {
	out := metricSet{}
	if r.Traced != nil {
		for k, v := range r.Traced.EndToEnd {
			out[k] = v
		}
	}
	for k, v := range r.Untraced.EndToEnd {
		out[k] = v
	}
	return out
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// mergeDir folds the per-run result files run.sh left in dir
// (<workload>.trace0.json, <workload>.trace1.json) into dir/results.json and
// prints the end-to-end table.
func mergeDir(w io.Writer, dir string) error {
	set := ResultSet{Env: Env{GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel()}}
	for _, wl := range workloads {
		row := WorkloadRow{Name: wl.name}
		for trace, dst := range []**Result{&row.Untraced, &row.Traced} {
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", wl.name, trace)))
			if err != nil {
				if trace == 1 && os.IsNotExist(err) {
					continue
				}
				return err
			}
			*dst = new(Result)
			if err := json.Unmarshal(data, *dst); err != nil {
				return fmt.Errorf("%s trace %d: %w", wl.name, trace, err)
			}
		}
		set.Workloads = append(set.Workloads, row)
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), set); err != nil {
		return err
	}

	fmt.Fprintf(w, "%s, %d CPUs (GOMAXPROCS %d), %s\n\n", set.Env.GoVersion, set.Env.NProc, set.Env.GOMAXPROCS, set.Env.CPUModel)
	fmt.Fprintf(w, "%-28s", "metric [unit]")
	for _, row := range set.Workloads {
		fmt.Fprintf(w, " %14s", row.Name)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-28s", fmt.Sprintf("%s [%s]", d.Name, d.Unit))
		for _, row := range set.Workloads {
			if m, ok := row.endToEnd()[d.Name]; ok {
				fmt.Fprintf(w, " %14.6g", m.Value)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-28s", "wall untraced+traced [s]")
	for _, row := range set.Workloads {
		wall := row.Untraced.WallS
		if row.Traced != nil {
			wall += row.Traced.WallS
		}
		fmt.Fprintf(w, " %14.1f", wall)
	}
	fmt.Fprintf(w, "\n\nwrote %s\n", filepath.Join(dir, "results.json"))
	return nil
}

func readSet(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(ResultSet)
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles applies each end-to-end metric's bound per workload row of
// two result sets, A the base. A host metric is "worse" when B is worse than
// A by more than the bound, and "unresolved" instead when either side's own
// spread exceeds the bound; simulated metrics must be equal when the seeds
// are. It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	rowsB := map[string]WorkloadRow{}
	for _, row := range b.Workloads {
		rowsB[row.Name] = row
	}
	fmt.Fprintf(w, "%-15s %-24s %14s %14s %22s %7s  %s\n", "workload", "metric", "A", "B", "ratio", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := rowsB[ra.Name]
		if !ok {
			fmt.Fprintf(w, "%-15s missing from %s\n", ra.Name, pathB)
			worse = true
			continue
		}
		sameSeed := ra.Untraced.Seed == rb.Untraced.Seed
		ea, eb := ra.endToEnd(), rb.endToEnd()
		for _, d := range endToEnd {
			ma, okA := ea[d.Name]
			mb, okB := eb[d.Name]
			if !okA && !okB {
				continue
			}
			verdict := "ok"
			switch {
			case okA != okB:
				verdict = "worse (metric present on one side only)"
			case d.Exact && !sameSeed:
				verdict = "n/a (seeds differ)"
			case d.Exact && ma.Value != mb.Value:
				verdict = "worse (must repeat exactly)"
			case !d.Exact && worsening(d, ma.Value, mb.Value) > d.Bound:
				verdict = "worse"
				if max(ra.Untraced.Spread[d.Name], rb.Untraced.Spread[d.Name]) > d.Bound {
					verdict = "unresolved (own spread exceeds bound)"
				}
			}
			worse = worse || strings.HasPrefix(verdict, "worse")
			ratio := "-"
			if ma.Value != 0 {
				ratio = fmt.Sprintf("B/A = %.4f", mb.Value/ma.Value)
			}
			bound := "exact"
			if !d.Exact {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			fmt.Fprintf(w, "%-15s %-24s %14.6g %14.6g %22s %7s  %s\n", ra.Name, d.Name, ma.Value, mb.Value, ratio, bound, verdict)
		}
		if ra.Traced == nil || rb.Traced == nil || !sameSeed {
			continue
		}
		// Simulated layer counts must repeat exactly too; print only those
		// that did not.
		same := 0
		for _, d := range layerDecls {
			ma, okA := ra.Traced.Layers[d.Name]
			mb, okB := rb.Traced.Layers[d.Name]
			if !d.Exact || (!okA && !okB) {
				continue
			}
			if okA != okB || ma.Value != mb.Value {
				fmt.Fprintf(w, "%-15s %-24s %14.6g %14.6g %22s %7s  %s\n", ra.Name, d.Name, ma.Value, mb.Value, "-", "exact", "worse (must repeat exactly)")
				worse = true
				continue
			}
			same++
		}
		fmt.Fprintf(w, "%-15s %d simulated layer metrics identical\n", ra.Name, same)
	}
	return worse, nil
}

// worsening returns by what share of a the value b is worse than a.
func worsening(d decl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
