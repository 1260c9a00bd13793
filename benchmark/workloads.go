package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sim"
)

// workload is one set of inputs the benchmark runs. run is the untraced
// end-to-end run; replay is the same work driven through the benchmark's
// span wrappers for the traced run, with tr == nil for its untraced twin.
type workload struct {
	name   string
	run    func(e *env) (*report, error)
	replay func(e *env, tr *tracer) (*replayStats, error)
}

// workloads lists every workload in BENCHMARK.json order. Why each
// exists is stated in BENCHMARK.json and, at length, in README.md.
var workloads = []*workload{
	{name: "figures-quick", run: runFigures, replay: replayFigures},
	{name: "merge-paper", run: runMerge, replay: replayMerge},
	{name: "serve-hot", run: runServeHot, replay: replayServeHot},
	{name: "serve-cold", run: runServeCold, replay: replayServeCold},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one child run's context.
type env struct {
	opts options
	tmp  string // scratch directory under the output directory
}

func newEnv(o options) (*env, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.out, "scratch-")
	if err != nil {
		return nil, err
	}
	return &env{opts: o, tmp: tmp}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.tmp) }

// smokeDivisor shrinks every measured phase and input size in -smoke.
const smokeDivisor = 50

// measure is how long the workload's timed phase lasts.
func (e *env) measure() time.Duration {
	d := time.Duration(e.opts.seconds) * time.Second
	if e.opts.smoke {
		d /= smokeDivisor
	}
	return d
}

// scaled shrinks a count in -smoke, keeping at least min.
func (e *env) scaled(n, min int) int {
	if e.opts.smoke {
		n /= smokeDivisor
	}
	if n < min {
		n = min
	}
	return n
}

// seedBase spreads one workload seed into a block of simulation seeds
// that no other workload seed reaches.
func (e *env) seedBase() uint64 { return e.opts.seed * 1_000_003 }

// endToEnd adds the five declared end-to-end metrics, in BENCHMARK.json
// order. lat holds per-operation latencies in ms. The tail latency is
// reported as a note, not declared: on the 2-vCPU guest the benchmark
// was calibrated on, host CPU steal moves it between runs by more than
// the largest bound a metric may have (README.md, calibration).
func endToEnd(r *report, setup, lat []float64, throughput, cpuPerOpMs, rssMB float64) {
	r.add("setup_s", median(setup), "s")
	r.add("op_p50_ms", median(lat), "ms")
	r.add("throughput_per_s", throughput, "1/s")
	r.add("cpu_ms_per_op", cpuPerOpMs, "ms")
	r.add("peak_rss_mb", rssMB, "MB")
	p := tailPercentile(len(lat))
	r.note("op_tail_ms", percentile(lat, p), "ms")
	r.note("op_tail_percentile", p, "pct")
	r.note("op_samples", float64(len(lat)), "count")
	r.note("setup_samples", float64(len(setup)), "count")
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ---- figures-quick ----------------------------------------------------

// figureSpecs is the spec set one regeneration runs. -smoke keeps only
// the anchor table, whose check the workload always makes.
func figureSpecs(e *env) []experiments.Spec {
	if !e.opts.smoke {
		return experiments.All()
	}
	s, err := experiments.Find("anchors")
	if err != nil {
		panic(err) // the id is a constant of this file
	}
	return []experiments.Spec{s}
}

func figureOptions(e *env) experiments.Options {
	return experiments.Options{Quick: true, Trials: 1, Seed: e.opts.seed}
}

// minRegenerations keeps a median meaningful when one regeneration takes
// most of the measured time.
const minRegenerations = 3

func runFigures(e *env) (*report, error) {
	r := &report{}
	specs, opts := figureSpecs(e), figureOptions(e)

	start := time.Now()
	outs, err := experiments.RunAll(specs, opts)
	if err != nil {
		return nil, fmt.Errorf("warm-up regeneration: %w", err)
	}
	setup := time.Since(start)
	ref := digestOutputs(specs, outs)
	checkFigures(e, r, ref, specs, outs)

	var walls, cpus []float64
	timed := time.Now()
	deadline := timed.Add(e.measure())
	for r.Attempted < minRegenerations || time.Now().Before(deadline) {
		c0, w0 := cpuSelf(), time.Now()
		outs, err := experiments.RunAll(specs, opts)
		wall, cpu := time.Since(w0), cpuSelf()-c0
		r.Attempted++
		if err != nil {
			r.fail("regeneration %d: %v", r.Attempted, err)
			continue
		}
		if diff := diffDigests(ref, digestOutputs(specs, outs)); diff != "" {
			r.fail("regeneration %d differs from the warm-up: %s", r.Attempted, diff)
		}
		walls = append(walls, ms(wall))
		cpus = append(cpus, ms(cpu))
	}
	endToEnd(r, []float64{setup.Seconds()}, walls, float64(len(walls))/time.Since(timed).Seconds(), median(cpus), peakRSSSelfMB())
	return r, nil
}

// digestOutputs hashes every figure CSV and table text a regeneration
// produced, keyed by artifact name.
func digestOutputs(specs []experiments.Spec, outs []experiments.Output) map[string]string {
	d := make(map[string]string)
	for i, out := range outs {
		for _, f := range out.Figures {
			var b bytes.Buffer
			_ = f.WriteCSV(&b)
			d["fig-"+f.ID+".csv"] = sha(b.Bytes())
		}
		for j, t := range out.Tables {
			var b bytes.Buffer
			_ = t.WriteText(&b)
			d[fmt.Sprintf("table-%s-%d.txt", specs[i].ID, j)] = sha(b.Bytes())
		}
	}
	return d
}

// diffDigests names the first artifact whose digest differs, or "".
func diffDigests(want, got map[string]string) string {
	for k, v := range want {
		if got[k] != v {
			return k
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return k + " (unexpected)"
		}
	}
	return ""
}

// ---- merge-paper ------------------------------------------------------

// mergeRow is one fixed configuration of the merge-paper workload.
type mergeRow struct {
	name string
	cfg  core.Config
}

// mergeRows are the nine configurations merge-paper cycles through: the
// paper's strategies at k=25 D=5, a larger shape, a finite cache under a
// finite CPU, output writes sharing the input arms, and a fail-slow disk.
func mergeRows() []mergeRow {
	mk := func(k, d, n int, inter, sync bool) core.Config {
		cfg := core.Default()
		cfg.K, cfg.D, cfg.N = k, d, n
		cfg.InterRun, cfg.Synchronized = inter, sync
		cfg.CacheBlocks = cfg.DefaultCache()
		if inter {
			cfg.CacheBlocks = cache.Unlimited
		}
		return cfg
	}
	finite := mk(25, 5, 10, true, false)
	finite.CacheBlocks = 300
	finite.MergeTimePerBlock = sim.Ms(0.3)
	write := mk(25, 5, 10, false, false)
	write.Write = core.WriteConfig{Enabled: true, Shared: true}
	slow := mk(25, 5, 10, true, false)
	slow.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 0, Slowdown: 2, ReadErrorProb: 0.01}}}
	return []mergeRow{
		{"none", mk(25, 5, 1, false, false)},
		{"intra-unsync", mk(25, 5, 10, false, false)},
		{"intra-sync", mk(25, 5, 10, false, true)},
		{"inter-unsync", mk(25, 5, 10, true, false)},
		{"inter-sync", mk(25, 5, 10, true, true)},
		{"inter-k50d10", mk(50, 10, 10, true, false)},
		{"inter-finite", finite},
		{"write-shared", write},
		{"failslow", slow},
	}
}

// mergeDigestTrials is how many seeds each row's golden digest covers.
const mergeDigestTrials = 3

// mergeDigests runs every row over mergeDigestTrials seeds from base and
// hashes each row's ResultJSON.
func mergeDigests(rows []mergeRow, base uint64) (map[string]string, error) {
	d := make(map[string]string)
	for _, row := range rows {
		cfg := row.cfg
		cfg.Seed = base
		aggs, err := core.RunGrid([]core.Config{cfg}, mergeDigestTrials, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.name, err)
		}
		b, err := json.Marshal(core.NewResultJSON(aggs[0]))
		if err != nil {
			return nil, err
		}
		d[row.name] = sha(b)
	}
	return d, nil
}

// setupPasses is how many times a workload sets up inside one run; the
// median is reported.
const setupPasses = 5

func runMerge(e *env) (*report, error) {
	r := &report{}
	rows := mergeRows()
	base := e.seedBase()

	// Set-up: the digest pass, repeated over the same seeds, which also
	// proves the engine deterministic before anything is timed.
	var setup []float64
	var ref map[string]string
	for pass := 0; pass < setupPasses; pass++ {
		start := time.Now()
		d, err := mergeDigests(rows, base)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		if pass == 0 {
			ref = d
		} else if diff := diffDigests(ref, d); diff != "" {
			r.fail("set-up pass %d: row %s changed between identical runs", pass, diff)
		}
	}
	checkMerge(e, r, ref)

	// An operation is one cycle over the nine rows: a median over single
	// runs would sit on the boundary between the cheap rows and the dear
	// ones and jump between them. A cycle runs on one locked goroutine
	// with no I/O, so its host time is its thread's CPU time; that, not
	// wall time, is what is timed, leaving out the time the VM's host
	// steals from the thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var lat, wallLat []float64
	perRow := make(map[string][]float64)
	var blocks int64
	var onCPU time.Duration
	c0, timed := cpuSelf(), time.Now()
	deadline := timed.Add(e.measure())
	for cycle := uint64(0); cycle == 0 || time.Now().Before(deadline); cycle++ {
		t0, w0 := cpuThread(), time.Now()
		for _, row := range rows {
			cfg := row.cfg
			cfg.Seed = base + mergeDigestTrials + cycle
			r0 := cpuThread()
			res, err := core.Run(cfg)
			perRow[row.name] = append(perRow[row.name], ms(cpuThread()-r0))
			r.Attempted++
			if err != nil {
				r.fail("%s seed %d: %v", row.name, cfg.Seed, err)
				continue
			}
			checkMergeResult(r, row, res)
			blocks += res.MergedBlocks
		}
		d := cpuThread() - t0
		lat = append(lat, ms(d))
		wallLat = append(wallLat, ms(time.Since(w0)))
		onCPU += d
	}
	cpu := cpuSelf() - c0
	endToEnd(r, setup, lat, float64(len(lat))/onCPU.Seconds(), ms(cpu)/float64(len(lat)), peakRSSSelfMB())
	r.note("op_wall_p50_ms", median(wallLat), "ms")
	r.note("merge_blocks_per_s", float64(blocks)/onCPU.Seconds(), "1/s")
	for _, row := range rows {
		r.note("run_ms_p50."+row.name, median(perRow[row.name]), "ms")
	}
	return r, nil
}

// checkMergeResult checks what every run must satisfy whatever its seed.
func checkMergeResult(r *report, row mergeRow, res core.Result) {
	switch sr := res.SuccessRatio(); {
	case res.TimedOut:
		r.fail("%s seed %d: timed out", row.name, row.cfg.Seed)
	case res.MergedBlocks != row.cfg.TotalBlocks():
		r.fail("%s seed %d: merged %d of %d blocks", row.name, res.Config.Seed, res.MergedBlocks, row.cfg.TotalBlocks())
	case sr < 0 || sr > 1:
		r.fail("%s seed %d: success ratio %v", row.name, res.Config.Seed, sr)
	case row.name == "inter-finite" && sr >= 1:
		r.fail("%s seed %d: a 300-block cache admitted every prefetch", row.name, res.Config.Seed)
	}
}
