package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as the partserver command when PARTSERVER_AS_COMMAND is set, so a
// test can watch the command fail and exit.
func TestMain(m *testing.M) {
	if os.Getenv("PARTSERVER_AS_COMMAND") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFatalPrintsCommandNameOnce: a bad flag exits with status 1 and one
// line that names the command once, also when the error comes from a
// package that prefixes its own name.
func TestFatalPrintsCommandNameOnce(t *testing.T) {
	for _, args := range [][]string{{"run", "-gap", "-5"}, {"run", "-fpgas", "-1"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "PARTSERVER_AS_COMMAND=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: %v, want exit status 1 (stderr %q)", args, err, stderr.String())
		}
		msg, ok := strings.CutPrefix(stderr.String(), "partserver: ")
		if !ok || strings.HasPrefix(msg, "partserver: ") {
			t.Errorf("%v: stderr %q, want the prefix \"partserver: \" exactly once", args, stderr.String())
		}
	}
}
