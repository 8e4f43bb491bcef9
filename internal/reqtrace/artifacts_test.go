package reqtrace

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fpgapart/internal/simtrace"
)

// redirect runs fn with *f pointed at a temporary file and returns what fn
// wrote there.
func redirect(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	saved := *f
	*f = tmp
	defer func() { *f = saved }()
	fn()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	return string(data)
}

// files lists the names in dir, sorted.
func files(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// traced returns a session and a capture as a completed run leaves them.
func traced() (*simtrace.Session, *Capture) {
	sess := simtrace.NewSession()
	sess.Metrics.Counter("sched.dispatched").Add(3)
	f := NewFlight(8)
	f.Record(FlightEvent{US: 10, Comp: "sched", Kind: "dispatch", Job: 0, Arg: 1})
	job := syntheticJob()
	return sess, &Capture{
		Traces:        []RequestTrace{BuildJob(42, &job)},
		Flight:        f.Events(),
		FlightDropped: f.Dropped(),
	}
}

// every asks for every file the set can write, in dir.
func every(dir string) Artifacts {
	return Artifacts{
		Trace:      filepath.Join(dir, "trace.json"),
		Metrics:    filepath.Join(dir, "metrics.json"),
		ReqTrace:   filepath.Join(dir, "reqtrace.json"),
		Flight:     filepath.Join(dir, "flight.txt"),
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
}

func TestArtifactsFailedRunWritesOnlyPostmortem(t *testing.T) {
	dir := t.TempDir()
	a := every(dir)
	sess, c := traced()
	runErr := errors.New("shard 1 crashed")
	var err error
	stderr := redirect(t, &os.Stderr, func() {
		stdout := redirect(t, &os.Stdout, func() { err = a.Finish("prog", "job", sess, c, runErr) })
		if stdout != "" {
			t.Errorf("failed run printed %q", stdout)
		}
	})
	if err != runErr {
		t.Fatalf("Finish returned %v, want the run's error", err)
	}
	if got := files(t, dir); len(got) != 1 || got[0] != "flight.txt" {
		t.Fatalf("failed run wrote %v, want only flight.txt", got)
	}
	pm, _ := os.ReadFile(a.Flight)
	if !strings.Contains(string(pm), "\ncause: shard 1 crashed\n") {
		t.Errorf("postmortem lacks the error as its cause:\n%s", pm)
	}
	if want := "prog: postmortem written to " + a.Flight + "\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
}

func TestArtifactsCompletedRunWritesAndAnnouncesRequestedFiles(t *testing.T) {
	dir := t.TempDir()
	a := every(dir)
	a.CPUProfile, a.MemProfile = "", "" // profiles have their own test
	a.Flight = ""                       // not requested: not written
	sess, c := traced()
	var err error
	stdout := redirect(t, &os.Stdout, func() { err = a.Finish("prog", "job", sess, c, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := files(t, dir), []string{"metrics.json", "reqtrace.json", "trace.json"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("completed run wrote %v, want %v", got, want)
	}
	for _, line := range []string{
		"job breakdowns written to " + a.ReqTrace,
		"trace written to " + a.Trace,
		"metrics written to " + a.Metrics,
	} {
		if !strings.Contains(stdout, line+"\n") {
			t.Errorf("stdout lacks %q:\n%s", line, stdout)
		}
	}
	if !strings.Contains(stdout, "critical paths") {
		t.Errorf("stdout lacks the critical-path profile:\n%s", stdout)
	}
	if m, _ := os.ReadFile(a.Metrics); !strings.Contains(string(m), "sched.dispatched") {
		t.Errorf("metrics snapshot lacks the session's counter:\n%s", m)
	}
}

func TestArtifactsProfilesAreNonEmpty(t *testing.T) {
	dir := t.TempDir()
	a := Artifacts{CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	var err error
	stdout := redirect(t, &os.Stdout, func() { err = a.Finish("prog", "", nil, nil, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Errorf("profiles are not announced, got %q", stdout)
	}
	for _, p := range []string{a.CPUProfile, a.MemProfile} {
		if info, err := os.Stat(p); err != nil || info.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(p), err)
		}
	}
}

// An empty path is never handed to os.Create (which would fail on it), and
// nothing is announced.
func TestArtifactsEmptyPathsWriteNothing(t *testing.T) {
	var a Artifacts
	if a.Session() != nil || a.Capture() != nil {
		t.Fatal("no flag set, yet a session or capture was made")
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	sess, c := traced()
	var err error
	stdout := redirect(t, &os.Stdout, func() { err = a.Finish("prog", "job", sess, c, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout, "written to") {
		t.Fatalf("empty paths announced a file:\n%s", stdout)
	}
}
