// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment has a Run function returning a typed result,
// and the result is one table: CSV returns its records, header row first,
// and Notes the remarks that go with it (run sizes, derived figures, the
// paper's numbers). Experiment.Text prints that table under the
// experiment's title, so the text and the CSV of a run are the same
// records. cmd/repro drives them from the command line.
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
	"strings"
	"text/tabwriter"
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

// Result is the outcome of one experiment run: one table and its remarks.
type Result interface {
	// CSV returns the table as plot-ready records, header row first.
	CSV() [][]string
	// Notes returns the lines printed under the table.
	Notes() []string
}

// Experiment couples an identifier and a title with its runner for
// cmd/repro.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (Result, error)
}

// Text prints a run's table under the experiment's title: the records
// (CSV's, taken once by the caller) in aligned columns, then the notes.
// A line without a tab ends tabwriter's column block, so the title and the
// notes pass through it unpadded.
func (e Experiment) Text(w io.Writer, records [][]string, notes []string) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "\n=== %s ===\n", e.Title)
	for _, rec := range records {
		fmt.Fprintln(tw, strings.Join(rec, "\t"))
	}
	for _, n := range notes {
		fmt.Fprintln(tw, n)
	}
	return tw.Flush()
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
		{"table1", "Table 1: CPU read time of a 512 MB region vs last writer", as(RunTable1)},
		{"fig2", "Figure 2: memory bandwidth vs sequential-read/random-write ratio (GB/s)", as(RunFigure2)},
		{"fig3", "Figure 3: tuples per partition across 8192 partitions (CDF summary)", as(RunFigure3)},
		{"fig4", "Figure 4: CPU partitioning throughput, 8 B tuples, 8192 partitions", as(RunFigure4)},
		{"table2", "Table 2: resource usage vs tuple width (Stratix V 5SGXEA, 8192 partitions)", as(RunTable2)},
		{"fig8", "Figure 8: throughput and data processed vs tuple width (HIST/RID)", as(RunFigure8)},
		{"fig9", "Figure 9: partitioning throughput, 8 B tuples, 8192 partitions (Mtuples/s)", as(RunFigure9)},
		{"model", "Section 4.6/4.8: cost model validation (N = 128e6, W = 8 B)", as(RunModelValidation)},
		{"fig10", "Figure 10: join time vs number of partitions (workload A)", as(RunFigure10)},
		{"fig11", "Figure 11: join time vs threads (workloads A, B)", as(RunFigure11)},
		{"fig12", "Figure 12: join time vs threads, radix vs hash (workloads C, D, E)", as(RunFigure12)},
		{"fig13", "Figure 13: join time vs Zipf factor of S (workload A sizes, HIST/RID)", as(RunFigure13)},
		{"skewdetect", "Extension: PAD overflow detection point vs skew (Section 5.4)", as(RunSkewDetect)},
		{"future", "Extension: the same circuit on future platforms (PAD/RID)", as(RunFuture)},
		{"dist", "Extension: distributed join over RDMA (Section 6 outlook)", as(RunDistributed)},
		{"compress", "Extension: partitioning compressed columns (HIST/VRID)", as(RunCompress)},
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
