package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/service"
)

// runMainEnv, when set, makes the test binary act as traceq itself:
// the golden tests re-execute it with traceq flags and read stdout.
const runMainEnv = "TRACEQ_TEST_RUN_MAIN"

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

// traceq runs the command with args and returns its stdout, failing the
// test on a non-zero exit.
func traceq(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, err := run(args...)
	if err != nil {
		t.Fatalf("traceq %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout
}

// runCases together set every config flag traceq has. Each row pins the
// SHA-256 of its run-mode -json stdout and names the /v1/explain
// request that describes the same point.
var runCases = []struct {
	name string
	args string
	req  service.SimulateRequest
	want string
}{
	{
		name: "intra-sync-scan-striped",
		args: "-k 6 -d 3 -n 3 -sync -blocks 40 -merge-ms 0.1 -schedule scan -placement striped",
		req:  service.SimulateRequest{K: 6, D: 3, N: 3, Synchronized: true, BlocksPerRun: 40, MergeMs: 0.1, Schedule: "scan", Placement: "striped"},
		want: "f3196fff5717018b618270a85b438d12bf5c5c48b209557bd556f998bc9d07a4",
	},
	{
		name: "inter-greedy-sstf-clustered",
		args: "-k 8 -d 4 -n 3 -inter -blocks 60 -cache 40 -greedy -schedule sstf -placement clustered -seed 3",
		req: service.SimulateRequest{K: 8, D: 4, N: 3, InterRun: true, BlocksPerRun: 60, CacheBlocks: 40,
			Admission: "greedy", Schedule: "sstf", Placement: "clustered", Seed: 3},
		want: "032280b127d5622321767bc08a0094bd201383abb9187c742744d5f39fff2b86",
	},
}

// TestJSONGolden pins the SHA-256 of traceq -json stdout per row.
func TestJSONGolden(t *testing.T) {
	for _, c := range runCases {
		t.Run(c.name, func(t *testing.T) {
			out := traceq(t, append(strings.Fields(c.args), "-check", "-json")...)
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("-json digest = %s, want %s\n%s", got, c.want, out)
			}
		})
	}
}

// TestJSONMatchesService checks that each row's flags and its request
// name the same point: traceq -json, compacted, is byte for byte the
// explain object /v1/explain serves.
func TestJSONMatchesService(t *testing.T) {
	svc := service.New(service.Options{})
	t.Cleanup(func() {
		if err := svc.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	for _, c := range runCases {
		t.Run(c.name, func(t *testing.T) {
			out := traceq(t, append(strings.Fields(c.args), "-json")...)
			var got bytes.Buffer
			if err := json.Compact(&got, []byte(out)); err != nil {
				t.Fatal(err)
			}
			body, _, err := svc.Explain(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Explain json.RawMessage `json:"explain"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), doc.Explain) {
				t.Fatalf("traceq -json differs from /v1/explain's report:\n got %s\nwant %s", got.Bytes(), doc.Explain)
			}
		})
	}
}

// TestRejectedFlags checks that bad config flags exit 1 with the
// request's own message.
func TestRejectedFlags(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-k 1", "k = 1"},
		{"-placement diagonal", `placement "diagonal"`},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			_, stderr, err := run(strings.Fields(c.args)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("traceq %s: err = %v, want exit status 1", c.args, err)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr %q does not mention %q", stderr, c.want)
			}
		})
	}
}
