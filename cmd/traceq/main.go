// Command traceq queries a merge execution trace: it builds the
// internal/explain attribution report — where the makespan went per
// disk and phase, which disk each CPU stall was waiting on, queue and
// cache distributions, and the top stall chains — and renders it as
// text, JSON, or an SVG timeline.
//
// It works from either source:
//
//	traceq -trace run.csv                 # a mergesim -trace -trace-format csv export ("-" = stdin)
//	traceq -k 25 -d 5 -n 10 -inter        # simulate the config, then explain it
//
// Useful flags: -json for the machine-readable report, -svg FILE for
// the timeline, -top N for more chains, -check to exit nonzero when the
// conservation invariant fails (truncated or inconsistent trace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	// Config flags bind onto the /v1/simulate request, as mergesim's do;
	// they are read only when simulating, never with -trace.
	var req service.SimulateRequest
	flag.IntVar(&req.K, "k", 25, "number of sorted runs (0 = paper default)")
	flag.IntVar(&req.D, "d", 5, "number of input disks (0 = paper default)")
	flag.IntVar(&req.N, "n", 1, "intra-run prefetch depth N (0 = paper default)")
	flag.IntVar(&req.BlocksPerRun, "blocks", 1000, "blocks per run (0 = paper default)")
	flag.BoolVar(&req.InterRun, "inter", false, "enable inter-run prefetching")
	flag.BoolVar(&req.Synchronized, "sync", false, "synchronized prefetching")
	flag.IntVar(&req.CacheBlocks, "cache", 0, "cache size in blocks (0 = natural size; -1 = unlimited)")
	flag.Float64Var(&req.MergeMs, "merge-ms", 0, "CPU time to merge one block, in ms")
	flag.Uint64Var(&req.Seed, "seed", 1, "random seed (0 = paper default)")
	flag.StringVar(&req.Schedule, "schedule", "fcfs", "disk queue discipline: fcfs, sstf, scan")
	flag.StringVar(&req.Placement, "placement", "round-robin", "run placement: round-robin, clustered, striped")
	var (
		traceIn  = flag.String("trace", "", "read a CSV trace export instead of simulating (\"-\" = stdin)")
		makespan = flag.Float64("makespan-ms", 0, "with -trace: the run's makespan in ms (0 = infer from the last span)")
		greedy   = flag.Bool("greedy", false, "greedy cache admission")
		traceMax = flag.Int("trace-events", 0, "cap on recorded trace events (0 = default 1M)")

		jsonOut = flag.Bool("json", false, "emit the report as JSON instead of text")
		svgOut  = flag.String("svg", "", "also write an SVG timeline to this file")
		topN    = flag.Int("top", 5, "number of stall chains to extract")
		check   = flag.Bool("check", false, "verify the conservation invariant; exit 1 on violation")
	)
	flag.Parse()

	var (
		rec       *trace.Recorder
		ms        = sim.Ms(*makespan)
		stallTime sim.Time
		haveStall bool
	)
	if *traceIn != "" {
		var err error
		rec, err = readTrace(*traceIn)
		if err != nil {
			fatal(err)
		}
	} else {
		if *greedy {
			req.Admission = "greedy"
		}
		cfg, err := req.Config()
		if err != nil {
			fatal(err)
		}
		cfg.Trace = trace.New(*traceMax)
		aggs, err := core.RunGrid([]core.Config{cfg}, 1, 1)
		if err != nil {
			fatal(err)
		}
		rec = cfg.Trace
		ms = aggs[0].Results[0].TotalTime
		stallTime = aggs[0].Results[0].StallTime
		haveStall = true
	}
	if rec.Truncated() {
		fmt.Fprintln(os.Stderr, "traceq: warning: trace hit its event cap and is truncated; the report is incomplete")
	}

	rep := explain.Build(rec, explain.Options{Makespan: ms, TopChains: *topN})

	if *check {
		st := rep.Stall.Total
		if haveStall {
			st = stallTime
		}
		if err := rep.Check(st); err != nil {
			fmt.Fprintf(os.Stderr, "traceq: conservation violated: %v\n", err)
			os.Exit(1)
		}
	}

	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		if err := explain.WriteTimelineSVG(f, rec, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

// readTrace loads a CSV export from a file or stdin.
func readTrace(path string) (*trace.Recorder, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadCSV(r)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "traceq: %v\n", err)
	os.Exit(1)
}
