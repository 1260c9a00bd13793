package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

// ablationAdmission compares the paper's all-or-demand admission policy
// against the rejected greedy alternative over the figure-3.5a cache
// sweep (k=25, D=5, N=10). The paper's Markov-analysis argument is that
// greedy's partial fetches delay the return to full-concurrency states;
// all-or-demand should win at mid-size caches.
func ablationAdmission(o Options) (Output, error) {
	f := &table.Figure{
		ID: "ablation-admission", Title: "Admission policy (25 runs, 5 disks, N=10)",
		XLabel: "cache size (blocks)", YLabel: "execution time (seconds)",
	}
	g := newGrid(o)
	for _, pol := range []cache.AdmissionPolicy{cache.AllOrDemand, cache.Greedy} {
		s := f.AddSeries(pol.String())
		for _, c := range cacheGrid(25, 1200, o.Quick) {
			cfg := baseConfig(25, 5, 10)
			cfg.InterRun = true
			cfg.CacheBlocks = c
			cfg.Admission = pol
			g.addPoint(s, float64(c), cfg)
		}
	}
	return g.output(Output{Figures: []*table.Figure{f}})
}

// ablationRunChoice compares how the inter-run strategy picks the run
// to prefetch on each disk: random (paper), least-buffered,
// round-robin, and an oracle with perfect lookahead. All policies
// replay the same pre-drawn depletion traces so differences are purely
// the policy's. The paper's TR found informed (head-position) policies
// marginal; buffer-informed and oracle choices quantify the actual
// headroom at a constrained cache.
func ablationRunChoice(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Inter-run prefetch run choice (k=25, D=5, N=10, C=500, shared traces)",
		Columns: []string{"policy", "total (s)", "success ratio"},
	}
	const k, blocks = 25, 1000
	policies := []core.PrefetchRunPolicy{
		core.RandomRun, core.LeastBufferedRun, core.RoundRobinRun, core.OracleRun,
	}
	totals := make(map[core.PrefetchRunPolicy]*stats.Summary)
	ratios := make(map[core.PrefetchRunPolicy]*stats.Summary)
	for _, pol := range policies {
		totals[pol] = &stats.Summary{}
		ratios[pol] = &stats.Summary{}
	}
	// Every (trial, policy) pair replays the same pre-drawn trace, so
	// each is an independent single-replication point: the grid runs
	// them with trials = 1 and per-point seeds and workloads.
	g := newGrid(o)
	g.trials = 1
	for trial := 0; trial < o.Trials; trial++ {
		trace := uniformTrace(o.Seed+uint64(trial), k, blocks)
		for _, pol := range policies {
			cfg := baseConfig(k, 5, 10)
			cfg.InterRun = true
			cfg.CacheBlocks = 500
			cfg.RunPolicy = pol
			cfg.Seed = o.Seed + uint64(trial)
			cfg.WorkloadFactory = func(int) workload.Model { return &workload.Sequence{Runs: trace} }
			g.addSeeded(cfg, func(a core.Aggregate) {
				res := a.Results[0]
				totals[pol].Add(res.TotalTime.Seconds())
				ratios[pol].Add(res.SuccessRatio())
			})
		}
	}
	if err := g.run(); err != nil {
		return Output{}, err
	}
	for _, pol := range policies {
		t.AddRow(pol.String(),
			fmt.Sprintf("%.2f", totals[pol].Mean()),
			fmt.Sprintf("%.3f", ratios[pol].Mean()))
	}
	return Output{Tables: []*table.Table{t}}, nil
}

// uniformTrace draws a full depletion order with exactly `blocks`
// depletions per run, uniformly interleaved — the Kwan–Baer model as a
// replayable sequence.
func uniformTrace(seed uint64, k, blocks int) []int {
	trace := make([]int, 0, k*blocks)
	for r := 0; r < k; r++ {
		for b := 0; b < blocks; b++ {
			trace = append(trace, r)
		}
	}
	r := rng.New(seed).Split("trace")
	r.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
	return trace
}

// ablationRotation compares the paper's mean-uniform rotational model
// against a constant-latency and a positional (angle-tracking) model.
func ablationRotation(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Rotational latency model (k=25, D=5, N=10, inter-run, ample cache)",
		Columns: []string{"model", "total (s)"},
	}
	g := newGrid(o)
	for _, m := range []disk.RotationalModel{disk.RotUniform, disk.RotConstant, disk.RotPositional} {
		cfg := strategyConfig(true, 25, 5, 10)
		cfg.Disk.Rotational = m
		g.add(cfg, func(a core.Aggregate) {
			t.AddRow(m.String(), fmt.Sprintf("%.2f", a.TotalTime.Mean()))
		})
	}
	return g.output(Output{Tables: []*table.Table{t}})
}

// ablationPlacement compares run placements. Striping a run over all
// disks parallelizes even a single intra-run fetch, at the price of
// occupying every arm; the bench shows where each wins.
func ablationPlacement(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Run placement (k=25, D=5, N=10, intra-run only)",
		Columns: []string{"placement", "strategy", "total (s)"},
	}
	g := newGrid(o)
	for _, pl := range []layout.Placement{layout.RoundRobin, layout.Clustered, layout.Striped} {
		for _, inter := range []bool{false, true} {
			cfg := strategyConfig(inter, 25, 5, 10)
			cfg.Placement = pl
			name := "demand-run-only"
			if inter {
				name = "all-disks-one-run"
			}
			g.add(cfg, func(a core.Aggregate) {
				t.AddRow(pl.String(), name, fmt.Sprintf("%.2f", a.TotalTime.Mean()))
			})
		}
	}
	return g.output(Output{Tables: []*table.Table{t}})
}

// ablationSeekModel compares the paper's linear seek curve against an
// acceleration-limited affine-√distance curve (2 ms settle +
// 0.5 ms·√cylinders, a realistic late-80s drive), for each strategy.
// The paper concedes its linear law is only an approximation; the
// bench shows the strategy ordering — and inter-run's dominance — is
// robust to the curve's shape.
func ablationSeekModel(o Options) (Output, error) {
	seek := func(model disk.SeekModel) func(*core.Config) {
		return func(c *core.Config) {
			c.Disk.Seek = model
			c.Disk.SeekSettle = 2      // ms: head settle
			c.Disk.SeekSqrtCoeff = 0.5 // ms per sqrt(cylinder)
		}
	}
	return strategyTable(o, "Seek curve (k=25, D=5, N=10): linear (paper) vs affine-sqrt",
		[]string{"strategy", "linear (s)", "affine-sqrt (s)"},
		[]strategyRow{
			{"no prefetch", 1, false},
			{"demand-run-only N=10", 10, false},
			{"all-disks-one-run N=10", 10, true},
		},
		seek(disk.SeekLinear), seek(disk.SeekAffineSqrt))
}

// ablationScheduler compares FCFS (paper) against SSTF queueing under
// inter-run prefetching, where queues actually form.
func ablationScheduler(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Disk queue discipline (k=50, D=5, N=10, inter-run, C=800)",
		Columns: []string{"discipline", "total (s)", "success ratio"},
	}
	g := newGrid(o)
	for _, disc := range []disk.Discipline{disk.FCFS, disk.SSTF, disk.SCAN} {
		cfg := baseConfig(50, 5, 10)
		cfg.InterRun = true
		cfg.CacheBlocks = 800
		cfg.Disk.Discipline = disc
		g.add(cfg, func(a core.Aggregate) {
			t.AddRow(disc.String(),
				fmt.Sprintf("%.2f", a.TotalTime.Mean()),
				fmt.Sprintf("%.3f", a.SuccessRatio.Mean()))
		})
	}
	return g.output(Output{Tables: []*table.Table{t}})
}
