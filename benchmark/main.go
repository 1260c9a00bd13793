// Command benchmark is this repository's benchmark: four workloads over
// the simulator and the simd daemon, measured end to end with tracing
// off, and layer by layer in a separate traced run. See README.md for
// the layer map, the workloads and the calibration.
//
// Build and run it from the repository root through run.sh, which also
// builds cmd/simd:
//
//	bash benchmark/run.sh -seed 1 -out bench-out                # every workload
//	bash benchmark/run.sh --workload merge-paper --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload serve-cold --trace 1         # per-layer run
//	bash benchmark/run.sh -compare parent-runs/ change-runs/
//
// Every workload runs in a fresh child process (a re-exec of this
// binary), so memory, GC and pools are per workload. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; every earlier metric line reads
// "workload metric value unit".
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// options are the settings one run shares with its workload children.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	simd     string
	smoke    bool
}

// args renders o back into the child's command line.
func (o options) args(workload string) []string {
	a := []string{
		"-child",
		"-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace),
		"-out", o.out,
		"-simd", o.simd,
	}
	if o.smoke {
		a = append(a, "-smoke")
	}
	return a
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces. Metrics are the ones
// BENCHMARK.json declares (end-to-end ones untraced, per-layer ones
// traced); Extra are informational lines that no verdict is taken on.
type report struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
	Extra     []metric `json:"extra,omitempty"`
}

// add appends a declared metric.
func (r *report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

// note appends an informational metric.
func (r *report) note(name string, v float64, unit string) {
	r.Extra = append(r.Extra, metric{name, v, unit})
}

// fail records one failed operation or output check.
func (r *report) fail(format string, a ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
	}
}

// correct reports whether every operation and every output check passed.
func (r *report) correct() bool { return r.Failed == 0 }

// meta describes the machine and settings a results.json was taken on.
type meta struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Smoke      bool   `json:"smoke"`
}

// results is the document written to OUT/results.json.
type results struct {
	Meta    meta      `json:"meta"`
	Reports []*report `json:"reports"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it (1 is the calibration seed, 7 the held-out one)")
	flag.IntVar(&o.seconds, "seconds", 15, "seconds each workload measures for")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run instead of the untraced end-to-end run")
	flag.StringVar(&o.out, "out", "bench-out", "directory for results.json, trace files and scratch data")
	flag.StringVar(&o.simd, "simd", "", "simd binary the serve workloads exec (run.sh builds it)")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload at about 1/50 scale (for tests)")
	child := flag.Bool("child", false, "run one workload in this process and print its report (used by the parent run)")
	compare := flag.Bool("compare", false, "compare two directories of results.json files: -compare PARENT CHANGE")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two directories")
			break
		}
		err = runCompare(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	case *child:
		err = runChild(o)
	default:
		err = runParent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// checkProcs is the scheduler guard: with more Ps than CPUs the numbers
// measure the Go scheduler's time slicing, not the program.
func checkProcs() error {
	if n, p := runtime.NumCPU(), runtime.GOMAXPROCS(0); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d; refusing to measure", p, n)
	}
	return nil
}

// runParent runs each selected workload in a child process, prints
// every metric, writes OUT/results.json and prints the summary line.
func runParent(o options) error {
	if err := checkProcs(); err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	names := workloadNames()
	if o.workload != "all" {
		if findWorkload(o.workload) == nil {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}
	if o.simd == "" {
		return errors.New("-simd is required: build cmd/simd and pass its path (run.sh does both)")
	}
	simd, err := filepath.Abs(o.simd)
	if err != nil {
		return err
	}
	o.simd = simd
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	res := results{Meta: collectMeta(o)}
	for _, name := range names {
		rep, err := spawnChild(o, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Reports = append(res.Reports, rep)
	}

	for _, r := range res.Reports {
		for _, m := range append(r.Metrics, r.Extra...) {
			fmt.Printf("%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		for _, f := range r.Failures {
			fmt.Printf("%s FAILED %s\n", r.Workload, f)
		}
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}

	summary := summarize(res.Reports)
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !summary.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds reports into the summary line. With one workload the
// metric names are the declared ones; with several each name is
// prefixed "workload/".
func summarize(reps []*report) summary {
	s := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range reps {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(reps) > 1 {
				name = r.Workload + "/" + name
			}
			s.Metrics[name] = metricValue{m.Value, m.Unit}
		}
	}
	return s
}

// spawnChild re-execs this binary for one workload and decodes the
// report it prints. The child dies with its parent.
func spawnChild(o options, name string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, o.args(name)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &rep, nil
}

// runChild runs one workload in this process and prints its report.
func runChild(o options) error {
	if err := checkProcs(); err != nil {
		return err
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	e, err := newEnv(o)
	if err != nil {
		return err
	}
	defer e.cleanup()
	var rep *report
	if o.trace != 0 {
		rep, err = tracedRun(e, w)
	} else {
		rep, err = w.run(e)
	}
	if err != nil {
		return err
	}
	rep.Workload, rep.Traced = w.name, o.trace != 0
	for _, m := range append(rep.Metrics, rep.Extra...) {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// collectMeta records what the numbers were measured on.
func collectMeta(o options) meta {
	m := meta{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   "unknown",
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace != 0,
		Smoke:      o.smoke,
	}
	// The ceiling keeps git from finding a repository above a checkout
	// that is not one.
	if wd, err := os.Getwd(); err == nil {
		git := exec.Command("git", "rev-parse", "HEAD")
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := git.Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// cpuSelf returns this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// cpuThread returns the calling OS thread's CPU time; the caller must
// hold runtime.LockOSThread. It reads CLOCK_THREAD_CPUTIME_ID because
// getrusage's per-thread figure is only as precise as the scheduler tick.
func cpuThread() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSSelfMB returns this process's peak resident set in MiB.
func peakRSSSelfMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
