package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary act as calibrate itself:
// the golden test re-executes it with calibrate flags and reads stdout.
const runMainEnv = "CALIBRATE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins calibrate's stdout verbatim in both search modes, so
// a change to the anchors, the fit or the report shows up as a diff of
// the lines it moves.
func TestGolden(t *testing.T) {
	for _, c := range []struct{ name, args string }{
		{"calibrate", ""},
		{"calibrate-fine", "-fine"},
	} {
		t.Run(c.name, func(t *testing.T) {
			golden := "testdata/" + c.name + ".golden"
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], strings.Fields(c.args)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var out, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				t.Fatalf("calibrate %s: %v\n%s", c.args, err, errOut.String())
			}
			if got := out.String(); got != string(want) {
				t.Fatalf("calibrate %s stdout differs from %s:\n--- got\n%s--- want\n%s", c.args, golden, got, want)
			}
		})
	}
}
