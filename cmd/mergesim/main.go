// Command mergesim simulates one merge configuration and reports its
// metrics, including the closed-form predictions where they apply.
//
// Example: the paper's headline comparison at k=25, D=5, N=10:
//
//	mergesim -k 25 -d 5 -n 10                 # intra-run, unsynchronized
//	mergesim -k 25 -d 5 -n 10 -inter          # + inter-run prefetching
//	mergesim -k 25 -d 5 -n 10 -inter -sync    # synchronized variant
//	mergesim -k 25 -d 5 -n 10 -inter -cache 500 -trials 5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/table"
	"repro/internal/trace"
)

func main() {
	// Config flags bind onto the /v1/simulate request, so Config below
	// is the same mapping simd applies to a request body.
	var req service.SimulateRequest
	flag.IntVar(&req.K, "k", 25, "number of sorted runs (0 = paper default)")
	flag.IntVar(&req.D, "d", 5, "number of input disks (0 = paper default)")
	flag.IntVar(&req.N, "n", 1, "intra-run prefetch depth N (0 = paper default)")
	flag.IntVar(&req.BlocksPerRun, "blocks", 1000, "blocks per run (0 = paper default)")
	flag.BoolVar(&req.InterRun, "inter", false, "enable inter-run prefetching (all disks one run)")
	flag.BoolVar(&req.Synchronized, "sync", false, "synchronized prefetching (CPU waits for whole batch)")
	flag.IntVar(&req.CacheBlocks, "cache", 0, "cache size in blocks (0 = natural size; -1 = unlimited)")
	flag.Float64Var(&req.MergeMs, "merge-ms", 0, "CPU time to merge one block, in ms (0 = infinitely fast)")
	flag.Uint64Var(&req.Seed, "seed", 1, "random seed (0 = paper default)")
	flag.StringVar(&req.Schedule, "schedule", "fcfs", "disk queue discipline: fcfs, sstf, scan")
	flag.StringVar(&req.Placement, "placement", "round-robin", "run placement: round-robin, clustered, striped")

	var fault faults.DiskSpec
	flag.IntVar(&fault.Disk, "fault-disk", -1, "disk index to inject faults into (-1 = none)")
	flag.Float64Var(&fault.Slowdown, "fault-slowdown", 0, "fail-slow service-time multiplier for the faulted disk (>= 1)")
	flag.Float64Var(&fault.SlowdownAtMs, "fault-slowdown-at-ms", 0, "simulated instant the slowdown phases in, in ms (0 = from the start)")
	flag.Float64Var(&fault.ReadErrorProb, "fault-error-prob", 0, "per-request transient read-error probability on the faulted disk")
	flag.IntVar(&fault.MaxRetries, "fault-retries", 0, "re-read cap per request (0 = default 3); exhausting it aborts with an unreadable-disk error")

	var (
		greedy      = flag.Bool("greedy", false, "greedy cache admission instead of all-or-demand")
		faultOutage = flag.String("fault-outage", "", "outage windows for the faulted disk, \"start:end[,start:end]\" in ms")
		trials      = flag.Int("trials", 1, "independent trials")
		workers     = flag.Int("workers", 0, "worker goroutines for multi-trial runs (0 = GOMAXPROCS, 1 = serial; results are identical)")
		verbose     = flag.Bool("v", false, "print per-disk statistics")
		ganttMs     = flag.Float64("gantt-ms", 0, "render a disk-busy Gantt chart for the first N ms of trial 1")
		jsonOut     = flag.Bool("json", false, "emit results as JSON instead of text")
		reqLog      = flag.String("reqlog", "", "write a JSONL log of every disk request (trial 1) to this file")
		traceOut    = flag.String("trace", "", "write an execution trace of trial 1 to this file")
		traceFmt    = flag.String("trace-format", "chrome", "trace format: chrome (Perfetto/chrome://tracing JSON) or csv")
		traceMax    = flag.Int("trace-events", 0, "cap on recorded trace events (0 = default 1M; past it the trace truncates)")
	)
	flag.Parse()

	// -greedy and -fault-outage fill request fields after parsing, so
	// -greedy=false keeps all-or-demand and -h shows their plain types.
	if *greedy {
		req.Admission = "greedy"
	}
	if fault.Disk >= 0 {
		var err error
		if fault.Outages, err = parseOutages(*faultOutage); err != nil {
			fatal(err)
		}
		req.Faults = []faults.DiskSpec{fault}
	} else if fault.Slowdown != 0 || fault.ReadErrorProb != 0 || *faultOutage != "" {
		fatal(fmt.Errorf("fault flags need -fault-disk to name the target disk"))
	}
	cfg, err := req.Config()
	if err != nil {
		fatal(err)
	}

	var logFile *os.File
	var logBuf *bufio.Writer
	if *reqLog != "" {
		logFile, err = os.Create(*reqLog)
		if err != nil {
			fatal(err)
		}
		logBuf = bufio.NewWriter(logFile)
		enc := json.NewEncoder(logBuf)
		cfg.OnRequest = func(tr disk.RequestTrace) {
			if err := enc.Encode(tr); err != nil {
				fatal(err)
			}
		}
		if *trials > 1 {
			fmt.Fprintln(os.Stderr, "mergesim: -reqlog forces a single trial")
			*trials = 1
		}
	}
	if *traceOut != "" {
		if *traceFmt != "chrome" && *traceFmt != "csv" {
			fatal(fmt.Errorf("unknown trace format %q (want chrome or csv)", *traceFmt))
		}
		cfg.Trace = trace.New(*traceMax)
		if *trials > 1 {
			fmt.Fprintln(os.Stderr, "mergesim: -trace forces a single trial")
			*trials = 1
		}
	}
	aggs, err := core.RunGrid([]core.Config{cfg}, *trials, *workers)
	if err != nil {
		fatal(err)
	}
	agg := aggs[0]
	if cfg.Trace != nil {
		if err := writeTrace(*traceOut, *traceFmt, cfg.Trace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events, format %s)\n",
			*traceOut, cfg.Trace.Len(), *traceFmt)
		if cfg.Trace.Truncated() {
			fmt.Fprintln(os.Stderr, "mergesim: trace truncated at the event cap; raise -trace-events for a full timeline")
		}
	}
	if logFile != nil {
		// A truncated request log is worse than no log: surface flush
		// and close errors (ENOSPC, I/O) with a non-zero exit.
		if err := logBuf.Flush(); err != nil {
			fatal(fmt.Errorf("reqlog %s: flush: %w", *reqLog, err))
		}
		if err := logFile.Close(); err != nil {
			fatal(fmt.Errorf("reqlog %s: close: %w", *reqLog, err))
		}
		fmt.Fprintf(os.Stderr, "request log written to %s\n", *reqLog)
	}

	if *jsonOut {
		emitJSON(agg, cfg.Trace != nil && cfg.Trace.Truncated())
		return
	}

	fmt.Printf("strategy       %s\n", cfg.StrategyName())
	fmt.Printf("shape          k=%d runs x %d blocks, D=%d disks, N=%d, cache=%s\n",
		cfg.K, cfg.BlocksPerRun, cfg.D, cfg.N, cacheStr(cfg.CacheBlocks))
	fmt.Printf("total time     %.3f s", agg.TotalTime.Mean())
	if *trials > 1 {
		fmt.Printf("  (±%.3f over %d trials)", agg.TotalTime.CI95(), *trials)
	}
	fmt.Println()
	fmt.Printf("success ratio  %.4f\n", agg.SuccessRatio.Mean())
	fmt.Printf("disk overlap   %.3f busy disks (given any busy)\n", agg.Concurrency.Mean())
	fmt.Printf("cpu stall      %.3f s\n", agg.StallTime.Mean())
	if f := agg.Results[0].Faults; f.Any() {
		fmt.Printf("faults         %d retries (%.3f s), outage wait %.3f s, slowdown %.3f s (trial 1)\n",
			f.Retries, f.RetryTime.Seconds(), f.OutageTime.Seconds(), f.SlowdownTime.Seconds())
	}

	printPredictions(cfg)

	if *verbose {
		res := agg.Results[0]
		fmt.Println("\nper-disk (trial 1):")
		for i, ds := range res.PerDisk {
			fmt.Printf("  disk %d: %d reqs, %d blocks, busy %.2fs, mean seek %.1f cyl, peak queue %d\n",
				i, ds.Requests, ds.Blocks, ds.BusyTime.Seconds(), ds.MeanSeekDistance(), ds.MaxQueueLen)
		}
		fmt.Printf("  cache peak occupancy: %d blocks\n", res.CachePeak)
	}

	if *ganttMs > 0 {
		fmt.Printf("\ndisk busy timeline, first %.0f ms (trial 1):\n", *ganttMs)
		rows, err := ganttRows(cfg)
		if err != nil {
			fatal(err)
		}
		if err := table.WriteGantt(os.Stdout, rows, 0, *ganttMs, 80); err != nil {
			fatal(err)
		}
	}
}

// ganttRows reruns trial 1 of cfg under its own recorder and returns
// one row per disk track, its busy time being every recorded phase but
// outage waits (the disk is down then, not busy). A separate run keeps
// the chart available at any trial count.
func ganttRows(cfg core.Config) ([]table.GanttRow, error) {
	rec := trace.New(0)
	cfg.Trace, cfg.OnRequest = rec, nil
	if _, err := core.Run(cfg); err != nil {
		return nil, err
	}
	if rec.Truncated() {
		fmt.Fprintln(os.Stderr, "mergesim: Gantt trace hit its event cap; later spans are missing")
	}
	// Disk tracks follow the CPU track: input disks, then write disks.
	const first = trace.CPUTrack + 1
	rows := make([]table.GanttRow, rec.Tracks()-first)
	for i := range rows {
		rows[i].Label = rec.TrackName(first + i)
	}
	for spans, i := rec.DiskSpans(), 0; i < spans.Len(); i++ {
		if s := spans.At(i); s.Phase != trace.PhaseOutage {
			row := &rows[s.Track-first]
			row.Intervals = append(row.Intervals, [2]float64{s.Start.Milliseconds(), s.End.Milliseconds()})
		}
	}
	return rows, nil
}

// emitJSON writes the shared machine-readable result schema
// (core.ResultJSON) — the same document `simd` serves, so scripted
// consumers can switch between the CLI and the daemon freely. A traced
// run that hit its event cap flags trace_truncated, mirroring the
// stderr warning for consumers that only read stdout.
func emitJSON(agg core.Aggregate, traceTruncated bool) {
	doc := core.NewResultJSON(agg)
	doc.TraceTruncated = traceTruncated
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

// predictions holds the sentence mergesim prints for each closed form:
// the form's name, then what it gives.
var predictions = [...]struct{ name, gives string }{
	analysis.Eq1:           {"eq(1)", "predicts %.3f s"},
	analysis.Eq2:           {"eq(2)", "predicts %.3f s"},
	analysis.Eq3:           {"eq(3)", "predicts %.3f s"},
	analysis.Eq4:           {"eq(4)", "predicts %.3f s"},
	analysis.Eq4Urn:        {"eq(4)/urn-game", "asymptote %.3f s (large N)"},
	analysis.Eq5:           {"eq(5)", "predicts %.3f s (ample cache)"},
	analysis.TransferFloor: {"lower bound kTB/D", "= %.3f s"},
}

// printPredictions prints the closed form that models cfg's shape. The
// closed forms assume an infinitely fast CPU, a cache of at least cfg's
// natural size and healthy disks; outside that regime the line names
// the failed assumption instead of a number.
func printPredictions(cfg core.Config) {
	s := analysis.Shape{K: cfg.K, D: cfg.D, N: cfg.N, BlocksPerRun: cfg.BlocksPerRun,
		InterRun: cfg.InterRun, Synchronized: cfg.Synchronized}
	p := predictions[s.Form()]
	switch natural, faulted := cfg.DefaultCache(), faultedDisk(cfg); {
	case cfg.MergeTimePerBlock > 0:
		fmt.Printf("analytic       %s does not apply: it assumes no merge time, and merging takes %g ms per block\n",
			p.name, cfg.MergeTimePerBlock.Milliseconds())
	case cfg.CacheBlocks < natural:
		fmt.Printf("analytic       %s does not apply: it assumes a cache of at least %d blocks, and this one holds %d\n",
			p.name, natural, cfg.CacheBlocks)
	case faulted >= 0:
		fmt.Printf("analytic       %s does not apply: it assumes healthy disks, and disk %d is faulted\n",
			p.name, faulted)
	default:
		fmt.Printf("analytic       %s "+p.gives+"\n", p.name, analysis.Predict(cfg.Disk, s).Seconds())
	}
}

// faultedDisk returns the first disk that cfg's faults slow down, fail
// reads on or take offline, or -1 when every disk is healthy.
func faultedDisk(cfg core.Config) int {
	if cfg.Faults != nil {
		for _, ds := range cfg.Faults.Disks {
			if ds.Slowdown > 1 || ds.ReadErrorProb > 0 || len(ds.Outages) > 0 {
				return ds.Disk
			}
		}
	}
	return -1
}

// writeTrace exports the recorded trace, surfacing flush and close
// errors with a non-zero exit — a truncated trace file loads as garbage
// in Perfetto.
func writeTrace(path, format string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	if format == "csv" {
		err = rec.WriteCSV(buf)
	} else {
		err = rec.WriteChrome(buf)
	}
	if err == nil {
		err = buf.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return nil
}

// parseOutages parses "start:end[,start:end]" (milliseconds) into
// outage windows; validation of ordering happens in cfg.Validate.
func parseOutages(s string) ([]faults.Window, error) {
	if s == "" {
		return nil, nil
	}
	var out []faults.Window
	for _, part := range strings.Split(s, ",") {
		var w faults.Window
		if _, err := fmt.Sscanf(part, "%f:%f", &w.StartMs, &w.EndMs); err != nil {
			return nil, fmt.Errorf("outage %q: want start:end in ms", part)
		}
		out = append(out, w)
	}
	return out, nil
}

func cacheStr(c int) string {
	if c == cache.Unlimited {
		return "unlimited"
	}
	return fmt.Sprintf("%d blocks", c)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mergesim:", err)
	os.Exit(1)
}
