package reqtrace

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"fpgapart/internal/simtrace"
)

// Artifacts is the one artifact flag set of the module's commands: each
// flag's name, type and usage is declared here once, a command registers
// the groups it offers, and Finish ends every run the same way. An empty
// path skips its file.
type Artifacts struct {
	// Trace and Metrics are the simtrace session's Chrome trace-event JSON
	// and metrics snapshot JSON (-trace, -metrics).
	Trace, Metrics string
	// ReqTrace and Flight are the capture's per-request breakdown JSON and
	// flight-recorder postmortem (-reqtrace, -flight).
	ReqTrace, Flight string
	// CPUProfile and MemProfile are host-side pprof profiles (-cpuprofile,
	// -memprofile). They never feed a gated metric, which come from the
	// simulator.
	CPUProfile, MemProfile string

	cpu *os.File // the running CPU profile, between Start and Finish
}

// TraceFlags registers -trace and -metrics.
func (a *Artifacts) TraceFlags(fs *flag.FlagSet) {
	fs.StringVar(&a.Trace, "trace", "", "write the Chrome trace-event timeline to this file")
	fs.StringVar(&a.Metrics, "metrics", "", "write the metrics snapshot (JSON) to this file")
}

// CaptureFlags registers -reqtrace and -flight.
func (a *Artifacts) CaptureFlags(fs *flag.FlagSet) {
	fs.StringVar(&a.ReqTrace, "reqtrace", "", "write per-request latency breakdowns (JSON) to this file and print the critical-path profile")
	fs.StringVar(&a.Flight, "flight", "", "write the flight-recorder postmortem (text) to this file")
}

// ProfileFlags registers -cpuprofile and -memprofile.
func (a *Artifacts) ProfileFlags(fs *flag.FlagSet) {
	fs.StringVar(&a.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&a.MemProfile, "memprofile", "", "write a heap profile after the run to this file")
}

// Session returns a fresh simtrace session when -trace or -metrics asked
// for one, nil otherwise.
func (a *Artifacts) Session() *simtrace.Session {
	if a.Trace == "" && a.Metrics == "" {
		return nil
	}
	return simtrace.NewSession()
}

// Capture returns an empty capture when -reqtrace or -flight asked for one,
// nil otherwise.
func (a *Artifacts) Capture() *Capture {
	if a.ReqTrace == "" && a.Flight == "" {
		return nil
	}
	return &Capture{}
}

// Start starts the CPU profile; call it once the flags are parsed.
func (a *Artifacts) Start() error {
	if a.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(a.CPUProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	a.cpu = f
	return nil
}

// Finish ends a run; prog names the command, noun what it calls a traced
// unit ("job", "request"), sess and c are the run's session and capture
// (either may be nil when no flag asked for it). It stops the CPU profile
// first. After a failed run (runErr non-nil) the flight timeline has
// survived the failure: the postmortem is written with the error as its
// cause, so the fault has causal context, and runErr is returned. After a
// completed one the heap profile is written (after a GC, so it shows live
// objects), the causal layer — per-request root spans plus flow arrows
// binding each cross-component handoff — goes into the session's Chrome
// trace, the critical-path profile is printed, and the breakdown JSON, the
// postmortem, the Chrome trace and the metrics snapshot are written, each
// announced on stdout.
func (a *Artifacts) Finish(prog, noun string, sess *simtrace.Session, c *Capture, runErr error) error {
	var profErr error
	if a.cpu != nil {
		pprof.StopCPUProfile()
		profErr = a.cpu.Close()
		a.cpu = nil
	}
	postmortem := func(cause string) func(io.Writer) error {
		return func(w io.Writer) error { return c.WritePostmortem(w, cause) }
	}
	if runErr != nil {
		if c != nil && a.Flight != "" && simtrace.WriteFile(a.Flight, postmortem(runErr.Error())) == nil {
			fmt.Fprintf(os.Stderr, "%s: postmortem written to %s\n", prog, a.Flight)
		}
		return runErr
	}
	if profErr != nil {
		return profErr
	}
	if a.MemProfile != "" {
		runtime.GC()
		if err := simtrace.WriteFile(a.MemProfile, pprof.WriteHeapProfile); err != nil {
			return err
		}
	}
	if c != nil {
		EmitChrome(sess, c.Traces)
		fmt.Print(Analyze(c.Traces, 5).Format())
	}
	for _, f := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{a.ReqTrace, noun + " breakdowns", func(w io.Writer) error { return WriteBreakdownJSON(w, c.Traces) }},
		{a.Flight, "flight postmortem", postmortem("none (run completed)")},
		{a.Trace, "trace", func(w io.Writer) error { return sess.Tracer.WriteJSON(w) }},
		{a.Metrics, "metrics", func(w io.Writer) error { return sess.Snapshot().WriteJSON(w) }},
	} {
		if f.path == "" {
			continue
		}
		if err := simtrace.WriteFile(f.path, f.write); err != nil {
			return err
		}
		fmt.Printf("%s written to %s\n", f.what, f.path)
	}
	return nil
}
