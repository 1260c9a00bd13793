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

	"repro/internal/faults"
	"repro/internal/service"
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

// mergesim runs the command with args and returns its stdout, failing
// the test on a non-zero exit.
func mergesim(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, err := run(args...)
	if err != nil {
		t.Fatalf("mergesim %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout
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

// jsonCases together set every config flag mergesim has. Each row pins
// the SHA-256 of its -json stdout and names the /v1/simulate request
// that describes the same point.
var jsonCases = []struct {
	name string
	args string
	req  service.SimulateRequest
	want string
}{
	{
		name: "inter-sync-unlimited-cache",
		args: "-k 6 -d 3 -n 3 -inter -sync -blocks 40 -cache -1",
		req:  service.SimulateRequest{K: 6, D: 3, N: 3, InterRun: true, Synchronized: true, BlocksPerRun: 40, CacheBlocks: -1},
		want: "84f4bc7853518ac9291aff787446302a1e62bb2ae88289c91e2129fb50ad71b4",
	},
	{
		name: "cache-300",
		args: "-k 25 -d 5 -n 10 -inter -blocks 100 -cache 300",
		req:  service.SimulateRequest{K: 25, D: 5, N: 10, InterRun: true, BlocksPerRun: 100, CacheBlocks: 300},
		want: "b4e55100f6a1d32bab86e616f2c5614bc2139993d3851da22ac0ccbcb0d35ead",
	},
	{
		name: "greedy",
		args: "-k 25 -d 5 -n 10 -inter -blocks 100 -cache 300 -greedy",
		req:  service.SimulateRequest{K: 25, D: 5, N: 10, InterRun: true, BlocksPerRun: 100, CacheBlocks: 300, Admission: "greedy"},
		want: "bfe149a774652577f044607c01c203b233f1f29123f26b9285bdc84f1a94f4d1",
	},
	{
		name: "greedy-false",
		args: "-k 25 -d 5 -n 10 -inter -blocks 100 -cache 300 -greedy=false",
		req:  service.SimulateRequest{K: 25, D: 5, N: 10, InterRun: true, BlocksPerRun: 100, CacheBlocks: 300},
		want: "b4e55100f6a1d32bab86e616f2c5614bc2139993d3851da22ac0ccbcb0d35ead",
	},
	{
		name: "fcfs-round-robin",
		args: "-k 6 -d 3 -n 2 -blocks 40 -schedule fcfs -placement round-robin",
		req:  service.SimulateRequest{K: 6, D: 3, N: 2, BlocksPerRun: 40, Schedule: "fcfs", Placement: "round-robin"},
		want: "194d294ce48c81942c64f7fe58f80c39f3a93f30eaefe4b04c60d2bad7ce713a",
	},
	{
		name: "sstf-clustered",
		args: "-k 6 -d 3 -n 2 -blocks 40 -schedule sstf -placement clustered",
		req:  service.SimulateRequest{K: 6, D: 3, N: 2, BlocksPerRun: 40, Schedule: "sstf", Placement: "clustered"},
		want: "41c7d140f58d5e61e43e661ef9f9f4344237fa57edde6aa1128318a5774b8dd9",
	},
	{
		name: "scan-striped",
		args: "-k 6 -d 3 -n 2 -blocks 40 -schedule scan -placement striped",
		req:  service.SimulateRequest{K: 6, D: 3, N: 2, BlocksPerRun: 40, Schedule: "scan", Placement: "striped"},
		want: "1aaa37c25982c641bec96c819f30bad8e9670e99f186617abfebcbed2226b27e",
	},
	{
		name: "merge-seed-trials",
		args: "-k 6 -d 3 -n 3 -inter -blocks 40 -merge-ms 0.2 -seed 9 -trials 4",
		req:  service.SimulateRequest{K: 6, D: 3, N: 3, InterRun: true, BlocksPerRun: 40, MergeMs: 0.2, Seed: 9, Trials: 4},
		want: "ccb73fbe29c294d118c218cfe7d542a1523d73c715f0c17701839711ed72225d",
	},
	{
		name: "faulted",
		args: "-k 6 -d 3 -n 3 -inter -blocks 40 -fault-disk 1 -fault-slowdown 2 -fault-slowdown-at-ms 40 " +
			"-fault-outage 20:60,100:140 -fault-error-prob 0.05 -fault-retries 5",
		req: service.SimulateRequest{K: 6, D: 3, N: 3, InterRun: true, BlocksPerRun: 40, Faults: []faults.DiskSpec{{
			Disk: 1, Slowdown: 2, SlowdownAtMs: 40, ReadErrorProb: 0.05, MaxRetries: 5,
			Outages: []faults.Window{{StartMs: 20, EndMs: 60}, {StartMs: 100, EndMs: 140}},
		}}},
		want: "2a2d14024e7a900f4b8a1fe0abacf39ae667a579fbe5e903d63284fb25729daa",
	},
}

// TestJSONGolden pins the SHA-256 of mergesim -json stdout per row.
func TestJSONGolden(t *testing.T) {
	for _, c := range jsonCases {
		t.Run(c.name, func(t *testing.T) {
			out := mergesim(t, append(strings.Fields(c.args), "-json")...)
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("-json digest = %s, want %s\n%s", got, c.want, out)
			}
		})
	}
}

// TestJSONMatchesService checks that each row's flags and its request
// name the same point: mergesim -json, compacted, is byte for byte the
// body /v1/simulate serves.
func TestJSONMatchesService(t *testing.T) {
	svc := service.New(service.Options{})
	t.Cleanup(func() {
		if err := svc.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	for _, c := range jsonCases {
		t.Run(c.name, func(t *testing.T) {
			out := mergesim(t, append(strings.Fields(c.args), "-json")...)
			var got bytes.Buffer
			if err := json.Compact(&got, []byte(out)); err != nil {
				t.Fatal(err)
			}
			want, _, err := svc.Simulate(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("mergesim -json differs from /v1/simulate:\n got %s\nwant %s", got.Bytes(), want)
			}
		})
	}
}

// TestRejectedFlags checks that bad config flags exit 1 with the
// request's own message, and that fault flags still need -fault-disk.
func TestRejectedFlags(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-k 1", "k = 1"},
		{"-schedule elevator", `schedule "elevator"`},
		{"-fault-slowdown 2", "fault flags need -fault-disk"},
		{"-k 4 -d 2 -n 2 -blocks 20 -fault-disk 0 -fault-slowdown 1e306", "slowdown 1e+306 not in [1, 1e+06]"},
		{"-k 4 -d 2 -n 2 -blocks 20 -fault-disk 0 -fault-outage 0:inf", "outage 0 [0, +Inf) ms is not finite"},
		{"-k 4 -d 2 -n 2 -blocks 20 -merge-ms 1e308", "merge time 1e+305s not in [0, 1000s] per block"},
		{"-merge-ms NaN", "merge time NaNs not in [0, 1000s] per block"},
		{"-fault-disk 0 -fault-error-prob NaN", "read error probability NaN not in [0, 1]"},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			_, stderr, err := run(strings.Fields(c.args)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("mergesim %s: err = %v, want exit status 1", c.args, err)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr %q does not mention %q", stderr, c.want)
			}
		})
	}
}

// TestZeroFlagIsPaperDefault checks that a zero config flag means what
// a zero request field means: the paper default.
func TestZeroFlagIsPaperDefault(t *testing.T) {
	cases := []struct{ zero, def string }{
		{"-k 6 -d 3 -n 2 -blocks 40 -seed 0", "-k 6 -d 3 -n 2 -blocks 40 -seed 1"},
		{"-k 0 -d 0 -n 0 -blocks 40", "-k 25 -d 5 -n 1 -blocks 40"},
	}
	for _, c := range cases {
		t.Run(c.zero, func(t *testing.T) {
			if got, want := mergesim(t, strings.Fields(c.zero)...), mergesim(t, strings.Fields(c.def)...); got != want {
				t.Fatalf("mergesim %s printed\n%s\nmergesim %s printed\n%s", c.zero, got, c.def, want)
			}
		})
	}
}

// TestAnalyticLine pins the text output, by SHA-256, of points inside
// the closed forms' regime (an infinitely fast CPU, a cache of at least
// the natural size, healthy disks), and the analytic line of points
// outside it, which names the failed assumption instead of printing a
// number. A fault flag that injects nothing keeps the point inside.
func TestAnalyticLine(t *testing.T) {
	inside := []struct{ args, want string }{
		{"", "6e33060e5008432541c92a1b9c481b8002c73f680f75be4049ddc780528f57ed"},
		{"-d 1", "d35f66fd17b16eae609f70fb546d9db32f7c37e3d6b01bea099d622b6534d35a"},
		{"-n 10 -sync", "68fdbfc0e479af43389b1f0ccc5e14fe2092af4e5de23d0207c2a70b36bc2f15"},
		{"-n 30", "bf866362583a92515de27066ed77e0ed12886454ad9549bdcac9bff7e9c88387"},
		{"-n 10 -inter", "b3b95e84ab45f7f86b829afe1458b2e0079726a328b01112211a7b847ad8f278"},
		{"-n 10 -inter -sync", "e9cf2f256737cf5783b43521691bdcf13f73c27d0f62a2a4ca2a7637e24a5d5c"},
		{"-n 10 -sync -fault-disk 0", "68fdbfc0e479af43389b1f0ccc5e14fe2092af4e5de23d0207c2a70b36bc2f15"},
	}
	for _, c := range inside {
		t.Run("inside "+c.args, func(t *testing.T) {
			out := mergesim(t, strings.Fields(c.args)...)
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("stdout digest = %s, want %s\n%s", got, c.want, out)
			}
		})
	}
	outside := []struct{ args, want string }{
		{"-n 10 -sync -cache 30",
			"analytic       eq(4) does not apply: it assumes a cache of at least 250 blocks, and this one holds 30"},
		{"-n 10 -merge-ms 2",
			"analytic       eq(4)/urn-game does not apply: it assumes no merge time, and merging takes 2 ms per block"},
		{"-n 10 -sync -fault-disk 0 -fault-slowdown 3",
			"analytic       eq(4) does not apply: it assumes healthy disks, and disk 0 is faulted"},
	}
	for _, c := range outside {
		t.Run("outside "+c.args, func(t *testing.T) {
			out := mergesim(t, strings.Fields(c.args)...)
			if !strings.Contains(out, "\n"+c.want+"\n") {
				t.Fatalf("stdout lacks the line\n%s\n%s", c.want, out)
			}
		})
	}
}
