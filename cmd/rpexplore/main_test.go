package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as rpexplore itself: with
// RPEXPLORE_ARGS set, the process runs main on those arguments instead of
// the tests, so exit codes are observed exactly as a shell sees them.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RPEXPLORE_ARGS"); ok {
		os.Args = append([]string{"rpexplore"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rpexplore runs the CLI on args and returns its exit code and stderr.
func rpexplore(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RPEXPLORE_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestMethodResolution: every engine name runs a tiny sweep to exit 0, and
// an unknown -method is a usage error (exit 2) reported before any
// workload is simulated.
func TestMethodResolution(t *testing.T) {
	for _, method := range []string{"rpstacks", "graph", "sim"} {
		if code, stderr := rpexplore(t, "-app 456.hmmer -n 300 -axis L1D=1,2 -parallelism 1 -method "+method); code != 0 {
			t.Errorf("-method %s: exit %d, stderr %s", method, code, stderr)
		}
	}
	for _, method := range []string{"oracle", "simulator"} {
		code, stderr := rpexplore(t, "-app 456.hmmer -n 300 -method "+method)
		if code != 2 || !strings.Contains(stderr, "unknown engine") {
			t.Errorf("-method %s: exit %d, stderr %q; want exit 2 naming the unknown engine", method, code, stderr)
		}
	}
}
