// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment has a Run function returning a typed result;
// the result renders itself twice — Text prints the rows/series the paper
// reports, CSV returns the same data as plot-ready records — so one run
// serves both. cmd/repro drives them from the command line.
//
// Absolute numbers differ from the paper — the CPU side is measured on the
// host running the tests (Go, not hand-tuned C with non-temporal SIMD) and
// the FPGA side is a cycle-level simulation against the calibrated platform
// model — but the shapes the paper argues from (who wins, by what factor,
// where crossovers fall) reproduce; EXPERIMENTS.md records the comparison.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies the paper's relation sizes (default 1/16 —
	// workload A becomes 8 M ⋈ 8 M). Tests use much smaller scales.
	Scale float64
	// Seed makes runs reproducible.
	Seed int64
	// MaxThreads caps the thread sweeps (default min(10, GOMAXPROCS),
	// matching the paper's 10-core CPU).
	MaxThreads int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0 / 16
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 10
		if n := runtime.GOMAXPROCS(0); n < 10 {
			c.MaxThreads = n
		}
	}
	return c
}

// threadSweep returns the paper's thread counts (1, 2, 4, 8, 10) clipped to
// the configured maximum.
func (c Config) threadSweep() []int {
	var out []int
	for _, t := range []int{1, 2, 4, 8, 10} {
		if t <= c.MaxThreads {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// Result is the outcome of one experiment run, in its two rendered forms.
type Result interface {
	// Text prints the rows/series the paper reports.
	Text(w io.Writer)
	// CSV returns the same data as plot-ready records, header row first.
	CSV() [][]string
}

// Experiment couples an identifier with its runner for cmd/repro.
type Experiment struct {
	ID          string
	Description string
	Run         func(cfg Config) (Result, error)
}

// as adapts a typed Run function to Experiment.Run. A failed run returns a
// nil Result, not a nil pointer wrapped in a non-nil interface.
func as[R Result](run func(Config) (R, error)) func(Config) (Result, error) {
	return func(cfg Config) (Result, error) {
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Memory access behavior vs last writer (coherence)", as(RunTable1)},
		{"fig2", "Memory bandwidth vs read/write ratio", as(RunFigure2)},
		{"fig3", "Tuple distribution CDF: radix vs hash partitioning", as(RunFigure3)},
		{"fig4", "CPU partitioning throughput vs threads", as(RunFigure4)},
		{"table2", "FPGA resource usage vs tuple width", as(RunTable2)},
		{"fig8", "FPGA throughput vs tuple width", as(RunFigure8)},
		{"fig9", "Partitioning throughput across modes", as(RunFigure9)},
		{"model", "Cost model parameters and Section 4.8 validation", as(RunModelValidation)},
		{"fig10", "Join time vs number of partitions", as(RunFigure10)},
		{"fig11", "Join time vs threads (workloads A, B)", as(RunFigure11)},
		{"fig12", "Join time vs threads and key distribution (C, D, E)", as(RunFigure12)},
		{"fig13", "Join time vs Zipf skew", as(RunFigure13)},
		{"skewdetect", "Extension: PAD overflow detection point vs skew", as(RunSkewDetect)},
		{"future", "Extension: the circuit on future platforms", as(RunFuture)},
		{"dist", "Extension: distributed join over RDMA", as(RunDistributed)},
		{"compress", "Extension: partitioning RLE-compressed columns", as(RunCompress)},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// f and d format a CSV cell.
func f(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
func d(v int64) string   { return strconv.FormatInt(v, 10) }

// percentile returns the p-th percentile (0–100) of sorted data.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
