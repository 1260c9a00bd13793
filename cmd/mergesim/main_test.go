package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary act as mergesim itself:
// the golden tests re-execute it with mergesim flags and read stdout.
const runMainEnv = "MERGESIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mergesim runs the command with args and returns its stdout.
func mergesim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("mergesim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestGanttGolden pins the SHA-256 of the rendered disk-busy Gantt
// block (from its heading to the end of stdout) for a multi-trial run
// and for a run with a slowed, briefly offline, error-prone disk.
func TestGanttGolden(t *testing.T) {
	cases := []struct {
		name string
		args string
		want string
	}{
		{
			name: "inter-3-trials",
			args: "-k 6 -d 3 -n 3 -inter -blocks 40 -gantt-ms 300 -trials 3",
			want: "3f6063200b889e90eeea643a4be35f155424168925b910080bac890241da0256",
		},
		{
			name: "faulted",
			args: "-k 6 -d 3 -n 3 -inter -blocks 40 -gantt-ms 300 -fault-disk 1 -fault-slowdown 2 " +
				"-fault-slowdown-at-ms 40 -fault-outage 20:60 -fault-error-prob 0.05",
			want: "f8187d25665106d7af4e0bdd3bd684c387cbbd518b994bb0d1373a2465615997",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := mergesim(t, strings.Fields(c.args)...)
			i := strings.Index(out, "disk busy timeline")
			if i < 0 {
				t.Fatalf("no Gantt block in output:\n%s", out)
			}
			sum := sha256.Sum256([]byte(out[i:]))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("Gantt digest = %s, want %s\n%s", got, c.want, out[i:])
			}
		})
	}
}
