package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary act as figures itself:
// the tests re-execute it with figures flags and read stdout.
const runMainEnv = "FIGURES_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its stdout, its
// stderr and the exit error, nil on exit status 0.
func run(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestVerifyRequiresReference checks -verify against a reference CSV
// written by -csv: it passes while the file is there, and exits 1
// naming the file once it is gone, rather than skipping the figure.
func TestVerifyRequiresReference(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, err := run("-quick", "-fig", "3.2a", "-csv", "-chart=false", "-out", dir); err != nil {
		t.Fatalf("figures -csv: %v\n%s", err, stderr)
	}
	verify := []string{"-verify", "-quick", "-fig", "3.2a", "-out", dir}
	stdout, stderr, err := run(verify...)
	if err != nil {
		t.Fatalf("figures -verify: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "verify 3.2a: OK") {
		t.Fatalf("figures -verify printed no OK:\n%s", stdout)
	}

	ref := filepath.Join(dir, "fig-3.2a.csv")
	if err := os.Remove(ref); err != nil {
		t.Fatal(err)
	}
	stdout, _, err = run(verify...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("figures -verify without %s: err = %v, want exit status 1", ref, err)
	}
	if !strings.Contains(stdout, ref) {
		t.Fatalf("figures -verify output does not name %s:\n%s", ref, stdout)
	}
}
