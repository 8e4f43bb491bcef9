// Command benchmark is the repository's two-clock benchmark: it drives each
// layer through its public functions, times them from outside on the host
// clock, reads the simulated clock from their results, verifies every output
// and prints every metric by name with its unit. See README.md.
//
//	go run ./benchmark --workload circuit_steady --seed 42 --seconds 14 --trace 0
//	go run ./benchmark -compare benchmark/baseline/run_a.json benchmark/baseline/run_b.json
//	benchmark/run.sh            # all workloads, untraced then traced
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 42, "input seed; references are recomputed per seed")
		seconds   = flag.Float64("seconds", runSeconds, "how long the rounds measure")
		trace     = flag.Int("trace", 0, "1 runs the traced run that produces the per-layer metrics")
		scaleName = flag.String("scale", "full", "full or tiny (smoke test)")
		out       = flag.String("out", "", "also write the run's result as JSON to this file")
		spans     = flag.String("spans", "", "where a traced run writes its spans (default benchmark/out/<workload>.spans.json)")
		list      = flag.Bool("list", false, "list the workloads and exit")
		compare   = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		merge     = flag.String("merge", "", "merge the per-run results in this directory into results.json and print the table")
		declare   = flag.Bool("declare", false, "print BENCHMARK.json as the harness's tables declare it")
	)
	flag.Parse()

	// The judged box has 2 vCPUs; no API is asked for more threads than that.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-15s %s\n", w.name, w.why)
		}
	case *declare:
		if err := writeDeclaration(os.Stdout); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *merge != "":
		if err := mergeDir(os.Stdout, *merge); err != nil {
			fatal(err)
		}
	default:
		sc, ok := scales[*scaleName]
		if !ok {
			fatal(fmt.Errorf("unknown scale %q", *scaleName))
		}
		if *spans == "" {
			*spans = filepath.Join("benchmark", "out", *name+".spans.json")
		}
		res, err := runWorkload(*name, *seed, sc, *seconds, *trace == 1, *spans)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatal(err)
			}
		}
		// The last line is the result line the driver reads.
		line, err := json.Marshal(driverLine(res))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the contract of BENCHMARK.json's command: an untraced run
// reports every gated end-to-end metric, a traced run every per-layer
// metric; one that the workload does not produce reads 0 there (and is
// absent from the harness's own Result).
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func driverLine(res *Result) resultLine {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metricSet{}}
	want := gateMetrics()
	if res.Traced {
		want = driverLayers()
	}
	for _, d := range want {
		m, ok := res.EndToEnd[d.Name]
		if !ok {
			m, ok = res.Layers[d.Name]
		}
		if !ok {
			m = Metric{Unit: d.Unit}
		}
		line.Metrics[d.Name] = m
	}
	return line
}

// printResult prints every metric the run produced, by name, with its unit.
func printResult(w io.Writer, res *Result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  scale %s  %s  rounds %d  ops %d  failed %d  wall %.1fs  contention %.2f (fastest probe %.3f ms)\n",
		res.Workload, res.Seed, res.Scale, kind, res.Rounds, res.Attempted, res.Failed, res.WallS, res.Contention, res.ProbeFloorMS)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, c := range res.Classes {
		fmt.Fprintf(w, "  class %-18s %9d tuples  quiet %9.3f ms  raw best %9.3f ms  median %9.3f ms  p90 %9.3f ms\n",
			c.Name, c.Tuples, c.QuietMS, c.BestMS, c.MedianMS, c.P90MS)
	}
	for _, d := range endToEnd {
		if m, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  e2e   %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, d := range layerDecls {
		if m, ok := res.Layers[d.Name]; ok {
			fmt.Fprintf(w, "  layer %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}
