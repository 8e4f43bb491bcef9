package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scale sizes the workloads. "full" is the benchmark; "tiny" exists for the
// smoke test and keeps every code path at a fraction of the cost.
type scale struct {
	name       string
	circuitN   int // tuples per 8-byte circuit op
	wideN      int // tuples of the 64-byte circuit op
	fan        int // the paper's fan-out, 8192
	cpuN       int // tuples per CPU partitioner op
	incacheN   int // tuples per in-cache CPU call
	joinN      int // |R| = |S|
	steadyReqs int
	churnReqs  int
	modelN     int // N of sim_model_err_pct
	// overflowLo and overflowHi bound the share of the input the fallback
	// class may consume before its PAD pass overflows.
	overflowLo, overflowHi float64
	setups                 int // set-ups per untraced run; setup_s is their median
	minRounds              int
	fixed                  bool // run exactly minRounds rounds whatever -seconds says
}

var scales = map[string]scale{
	"full": {name: "full", circuitN: 1 << 19, wideN: 1 << 16, fan: 8192, cpuN: 1 << 22, incacheN: 1 << 16,
		joinN: 1 << 19, steadyReqs: 4000, churnReqs: 2000, modelN: 1 << 22,
		overflowLo: 0.2, overflowHi: 0.8, setups: 3, minRounds: 3},
	"tiny": {name: "tiny", circuitN: 1 << 11, wideN: 1 << 9, fan: 64, cpuN: 1 << 13, incacheN: 1 << 10,
		joinN: 1 << 11, steadyReqs: 48, churnReqs: 48, modelN: 1 << 12,
		overflowLo: 0, overflowHi: 1, setups: 1, minRounds: 2, fixed: true},
}

// simStat is one simulated statistic of one op. The harness requires every
// simulated statistic to be identical in every round of a run.
type simStat struct {
	name string
	v    int64
}

// class is one op class of a workload: one public-API call on fixed inputs.
type class struct {
	name   string
	fn     string // the public function op calls, for the spans
	tuples int64  // input tuples one op processes
	// op is the timed call: a public function of the layer under test and
	// nothing else.
	op func() (any, error)
	// check is the untimed oracle on op's result. It returns the op's
	// simulated statistics, or an error when verification failed.
	check func(res any) ([]simStat, error)
	// traced runs only in a traced run, after op and check: the same call
	// with the program's trace options attached and the shadow calls that
	// replay the layer below on the same inputs.
	traced func(tr *tracer, parent int) error

	times  []float64 // host seconds of op, one per round
	probes []float64 // mean of the contention probes around op, one per round
	rssMiB []float64 // resident-set high-water mark during op, one per round
	first  []simStat // simulated statistics of round 0
	quietS float64   // median quiet-equivalent op time, set by hostMetrics
}

// bench is one benchmark workload, built by its set-up from a seed.
type bench struct {
	name    string
	classes []*class
	// genS and genTuples are what input generation cost inside set-up.
	genS      float64
	genTuples int64
	// finish adds the workload's own end-to-end and layer metrics after the
	// rounds; traced tells it whether layer metrics are wanted.
	finish func(run *runState) error
}

type setupFunc func(seed int64, sc scale, traced bool) (*bench, error)

var workloads = []struct {
	name  string
	why   string
	setup setupFunc
}{
	{"circuit_steady", "circuit in hazard-free steady state on uniform input: internal/core does all the work, cpupart, joincore and cluster none", setupCircuitSteady},
	{"circuit_skew", "same circuit on Zipf, grid and linear input: forwarding registers, aborted PAD pass and CPU fallback; a steady-state shortcut that costs here shows", setupCircuitSkew},
	{"cpu_partition", "measured CPU partitioner, out of cache, in cache and skewed: internal/cpupart does all the work and core none, so a circuit change predicts no change", setupCPUPartition},
	{"join", "the paper's end-to-end use: CPU radix, budgeted (spill, skew), non-partitioned and hybrid joins; joincore is in all five classes, cpupart in three, core in one", setupJoin},
	{"serve_steady", "4000 tiny requests on a static 3-shard ring: per-request overhead of cluster and partserver dominates per-tuple work; virtual-time latencies are exact", setupServeSteady},
	{"serve_churn", "membership churn, hedging, quota and a crash make one request's work execute several times: what a single event loop and memoised execution remove", setupServeChurn},
}

func findWorkload(name string) (setupFunc, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.setup, true
		}
	}
	return nil, false
}

// Result is what one run of one workload reports; it is the harness's own
// JSON schema (results.json, baseline/*.json).
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Scale     string  `json:"scale"`
	Traced    bool    `json:"traced"`
	Seconds   float64 `json:"seconds"`
	Rounds    int     `json:"rounds"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Correct   bool    `json:"correct"`
	WallS     float64 `json:"wall_s"`
	// Contention is the mean over the timed ops of the probe time next to
	// the op over ProbeFloorMS, the run's fastest probe; 1 is a quiet box.
	Contention   float64     `json:"contention"`
	ProbeFloorMS float64     `json:"probe_floor_ms"`
	Failures     []string    `json:"failures,omitempty"`
	Classes      []ClassStat `json:"classes"`
	EndToEnd     metricSet   `json:"end_to_end"`
	// Spread is each host end-to-end metric's own run-internal spread as a
	// share of its value: odd against even rounds, or across set-ups.
	Spread map[string]float64 `json:"spread"`
	Layers metricSet          `json:"layers,omitempty"`
}

// ClassStat summarises one op class's host times over the rounds: QuietMS
// is the median quiet-equivalent time the host metrics are computed from,
// the other three are the raw times as the clock read them.
type ClassStat struct {
	Name     string  `json:"name"`
	Tuples   int64   `json:"tuples"`
	QuietMS  float64 `json:"quiet_ms"`
	BestMS   float64 `json:"best_ms"`
	MedianMS float64 `json:"median_ms"`
	P90MS    float64 `json:"p90_ms"`
}

// runState carries one run's measurements to the workload's finish hook.
type runState struct {
	sc     scale
	seed   int64
	traced bool
	wl     *bench
	tr     *tracer
	res    *Result

	allocBytes, mallocs uint64 // over the timed ops only
	opTuples            int64
	*prober
}

func (r *runState) fail(format string, args ...any) {
	r.res.Failed++
	if len(r.res.Failures) < 8 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// class returns the workload's class by name.
func (r *runState) class(name string) *class {
	for _, c := range r.wl.classes {
		if c.name == name {
			return c
		}
	}
	panic("benchmark: no class " + name)
}

// stat returns the class's simulated statistic of that name in round 0, or
// 0 when it has none.
func (c *class) stat(name string) int64 {
	for _, s := range c.first {
		if s.name == name {
			return s.v
		}
	}
	return 0
}

// simSum returns the sum over one round of a simulated statistic across the
// workload's classes.
func (r *runState) simSum(name string) (sum int64) {
	for _, c := range r.wl.classes {
		sum += c.stat(name)
	}
	return sum
}

// sweeps keeps, per class, the best time of the oracle's checksum sweep.
type sweeps map[string]float64

func (m sweeps) observe(class string, t0 time.Time) {
	if dt := time.Since(t0).Seconds(); m[class] == 0 || dt < m[class] {
		m[class] = dt
	}
}

func (m sweeps) totalMS() float64 {
	var sum float64
	for _, s := range m {
		sum += s
	}
	return 1e3 * sum
}

// runWorkload sets the workload up, runs rounds for the given time — each
// round runs every op class once, in fixed order — and reports.
func runWorkload(name string, seed int64, sc scale, seconds float64, traced bool, spansPath string) (*Result, error) {
	setup, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	wallStart := time.Now()
	res := &Result{Workload: name, Seed: seed, Scale: sc.name, Traced: traced, Seconds: seconds,
		EndToEnd: metricSet{}, Spread: map[string]float64{}}
	run := &runState{sc: sc, seed: seed, traced: traced, res: res, prober: newProber()}
	if traced {
		run.tr = newTracer(name)
		res.Layers = metricSet{}
	}

	// Set-up: input generation, reference results and one untimed warm-up
	// round. An untraced run sets up several times and reports the median,
	// because a single shot of a few hundred ms is at the mercy of the box.
	setups := sc.setups
	if traced {
		setups = 1
	}
	// Like an op, a set-up is timed between contention probes — one before,
	// one after input generation and one after each warm-up op — and reported
	// as its quiet-equivalent time once the run's fastest probe is known.
	var setupS, setupProbe []float64
	for i := 0; i < setups; i++ {
		run.wl = nil
		runtime.GC()
		t0 := time.Now()
		probes := []float64{run.probe()}
		wl, err := setup(seed, sc, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		probes = append(probes, run.probe())
		for _, c := range wl.classes {
			out, err := c.op()
			if err != nil {
				return nil, fmt.Errorf("%s/%s: warm-up: %w", name, c.name, err)
			}
			if _, err := c.check(out); err != nil {
				return nil, fmt.Errorf("%s/%s: warm-up: %w", name, c.name, err)
			}
			probes = append(probes, run.probe())
		}
		elapsed := time.Since(t0).Seconds()
		for _, p := range probes {
			elapsed -= p
		}
		setupS = append(setupS, elapsed)
		setupProbe = append(setupProbe, mean(probes))
		run.wl = wl
	}

	runtime.GC()
	gc0, cpu0 := gcCPUSeconds(), cpuNow()
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < sc.minRounds || (!sc.fixed && time.Now().Before(deadline)); round++ {
		for _, c := range run.wl.classes {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			resetPeakRSS()
			p0 := run.probe()
			span := run.tr.begin(0, c.name, round, c.fn)
			t0 := time.Now()
			out, err := c.op()
			dt := time.Since(t0)
			run.tr.end(span)
			c.probes = append(c.probes, (p0+run.probe())/2)
			c.rssMiB = append(c.rssMiB, peakRSSMiB())
			runtime.ReadMemStats(&ms1)

			res.Attempted++
			c.times = append(c.times, dt.Seconds())
			run.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			run.mallocs += ms1.Mallocs - ms0.Mallocs
			run.opTuples += c.tuples
			if err != nil {
				run.fail("%s round %d: %v", c.name, round, err)
				continue
			}
			sim, err := c.check(out)
			if err != nil {
				run.fail("%s round %d: %v", c.name, round, err)
				continue
			}
			if !c.sameAsFirst(sim) {
				run.fail("%s round %d: simulated statistics differ from round 0: %v vs %v", c.name, round, sim, c.first)
				continue
			}
			if traced {
				if err := c.traced(run.tr, span); err != nil {
					run.fail("%s round %d: traced: %v", c.name, round, err)
				}
			}
		}
		res.Rounds++
	}
	loopCPU := cpuNow() - cpu0
	gcCPU := gcCPUSeconds() - gc0

	for i := range setupS {
		setupS[i] = run.quiet(setupS[i], setupProbe[i])
	}
	res.EndToEnd.set("setup_s", median(setupS))
	res.Spread["setup_s"] = (maxOf(setupS) - minOf(setupS)) / median(setupS)
	run.hostMetrics()
	if traced {
		l := res.Layers
		l.set("harness.rounds", float64(res.Rounds))
		if loopCPU > 0 {
			l.set("harness.gc_cpu_pct", 100*gcCPU/loopCPU.Seconds())
		}
		if run.wl.genS > 0 {
			l.set("workload.gen_ms", 1e3*run.wl.genS)
			l.set("workload.gen_mtuples_per_s", float64(run.wl.genTuples)/run.wl.genS/1e6)
		}
	}
	if err := run.wl.finish(run); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.EndToEnd.set("failed_ops_share", float64(res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0
	res.WallS = time.Since(wallStart).Seconds()
	if traced && spansPath != "" {
		if err := run.tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sameAsFirst keeps round 0's simulated statistics and reports whether a
// later round's equal them.
func (c *class) sameAsFirst(sim []simStat) bool {
	if len(c.times) == 1 {
		c.first = sim
		return true
	}
	if len(sim) != len(c.first) {
		return false
	}
	for i, s := range sim {
		if s != c.first[i] {
			return false
		}
	}
	return true
}

// hostMetrics computes the host-clock end-to-end metrics all workloads
// share, and the harness.* layer metrics. A class's host time is the median,
// over all rounds, of its quiet-equivalent op times (contention.go): on the
// box this repo is judged on both the minimum and the median of the raw op
// times of identical code move by a quarter from one run to the next, the
// median of the quiet-equivalent times by a few per cent. A workload's
// summary is the geometric mean over its classes, so one long class cannot
// drown the others. peak_rss_mb is the largest, over the op classes, of the
// smallest resident-set high-water mark during one op: the whole-process
// VmHWM of a 25 MB process moves by a fifth with the timing of one garbage
// collection; the smallest peak an op can get by with does not.
func (r *runState) hostMetrics() {
	res := r.res
	var rates, odd, even, noise, contention []float64
	var rss float64
	for _, c := range r.wl.classes {
		rss = math.Max(rss, minOf(c.rssMiB))
		sorted := append([]float64(nil), c.times...)
		sort.Float64s(sorted)
		best, med, q90 := sorted[0], quantile(sorted, 0.5), quantile(sorted, 0.9)
		// Quiet-equivalent times, and odd against even rounds: the metric's
		// own spread inside the run.
		var quiet []float64
		var halves [2][]float64
		for i, t := range c.times {
			q := r.quiet(t, c.probes[i])
			quiet = append(quiet, q)
			halves[i%2] = append(halves[i%2], q)
			contention = append(contention, math.Max(1, c.probes[i]/r.floorS))
		}
		c.quietS = median(quiet)
		res.Classes = append(res.Classes, ClassStat{Name: c.name, Tuples: c.tuples, QuietMS: 1e3 * c.quietS,
			BestMS: 1e3 * best, MedianMS: 1e3 * med, P90MS: 1e3 * q90})
		rates = append(rates, float64(c.tuples)/c.quietS/1e6)
		noise = append(noise, med/best)
		even = append(even, float64(c.tuples)/median(halves[0])/1e6)
		if len(halves[1]) > 0 {
			odd = append(odd, float64(c.tuples)/median(halves[1])/1e6)
		}
		if r.traced {
			res.Layers.set("harness.op_best_ms."+c.name, 1e3*best)
		}
	}
	res.EndToEnd.set("peak_rss_mb", rss)
	host := geomean(rates)
	res.EndToEnd.set("host_mtuples_per_s", host)
	if len(odd) == len(even) {
		res.Spread["host_mtuples_per_s"] = math.Abs(geomean(odd)-geomean(even)) / host
	}
	res.EndToEnd.set("alloc_bytes_per_tuple", float64(r.allocBytes)/float64(r.opTuples))
	res.EndToEnd.set("mallocs_per_ktuple", 1e3*float64(r.mallocs)/float64(r.opTuples))
	res.Contention, res.ProbeFloorMS = mean(contention), 1e3*r.floorS
	if r.traced {
		res.Layers.set("harness.noise_ratio", geomean(noise))
		res.Layers.set("harness.contention", res.Contention)
	}
}

// simHostRate sets sim_mcycles_per_host_s: the geomean over the classes that
// simulate cycles of simulated Mcycles per quiet-equivalent op second.
func (r *runState) simHostRate() {
	var rates []float64
	for _, c := range r.wl.classes {
		if cycles := c.stat("cycles"); cycles > 0 {
			rates = append(rates, float64(cycles)/c.quietS/1e6)
		}
	}
	if len(rates) > 0 {
		r.res.EndToEnd.set("sim_mcycles_per_host_s", geomean(rates))
		r.res.Spread["sim_mcycles_per_host_s"] = r.res.Spread["host_mtuples_per_s"]
	}
}

// cpuNow returns the process CPU time (user + system) so far. It is additive
// across goroutines, which wall time is not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds returns the CPU seconds the garbage collector has used.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of this
// process, so that the next peakRSSMiB reads the peak since now. Where the
// kernel refuses, the mark keeps running from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB returns VmHWM of this process.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = math.Max(m, x)
	}
	return m
}
