package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs the test binary as the fpgapart command when FPGAPART_AS_COMMAND is set, so a
// test can watch the command's output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("FPGAPART_AS_COMMAND") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fpgapart runs the command with args and returns its stdout, stderr and
// exit status.
func fpgapart(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPGAPART_AS_COMMAND=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), status
}

// TestNegativeTupleCountFails: a negative -n exits with status 1 and one
// line naming the command and the workload's error, on either backend.
func TestNegativeTupleCountFails(t *testing.T) {
	for _, args := range [][]string{{"-n", "-5"}, {"-backend", "cpu", "-n", "-5"}} {
		stdout, stderr, status := fpgapart(t, args...)
		if want := "fpgapart: workload: negative tuple count -5\n"; status != 1 || stderr != want || stdout != "" {
			t.Errorf("%v: status %d, stderr %q, stdout %q; want status 1 and stderr %q", args, status, stderr, stdout, want)
		}
	}
}

// TestDummyKeyFallbackNoted: this seed's random keys include the circuit's
// dummy key, so the run falls back to the CPU, reports every tuple, says why
// it fell back and labels its time as what it is: the simulated circuit run
// plus the measured CPU rerun.
func TestDummyKeyFallbackNoted(t *testing.T) {
	stdout, stderr, status := fpgapart(t, "-backend", "fpga", "-n", "1048576", "-dist", "random", "-seed", "252",
		"-partitions", "1024", "-format", "hist")
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	if !regexp.MustCompile(`(?m)^elapsed: +\S+ \(simulated circuit run \+ measured CPU rerun\)$`).MatchString(stdout) {
		t.Errorf("stdout lacks the elapsed line of a fallback run:\n%s", stdout)
	}
	for _, want := range []string{
		"tuples:        1048576  (1024 partitions)\n",
		"note:          the input holds the circuit's dummy key — fell back to the CPU partitioner\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestEmptyRelationHasNoImbalance: with no tuples the mean partition size is
// 0, so the size line prints no max/mean ratio rather than NaN, and the run
// succeeds.
func TestEmptyRelationHasNoImbalance(t *testing.T) {
	stdout, stderr, status := fpgapart(t, "-n", "0", "-partitions", "16")
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	if want := "partition size: min 0, mean 0.0, max 0\n"; !strings.Contains(stdout, want) || strings.Contains(stdout, "NaN") {
		t.Errorf("stdout lacks %q or holds a NaN:\n%s", want, stdout)
	}
}
