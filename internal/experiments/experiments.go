// Package experiments defines one reproducible generator per figure of
// the paper's evaluation (§3), plus the anchor-validation tables and
// the design-choice ablations called out in DESIGN.md. Each generator
// returns text-renderable figures whose series mirror the paper's
// legends, so the harness output can be compared against the paper
// panel by panel.
package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/table"
)

// Options tunes experiment execution.
type Options struct {
	// Trials is the number of independent replications averaged per
	// point (the paper averages 5).
	Trials int
	// Seed is the base seed; trials use Seed, Seed+1, ...
	Seed uint64
	// Quick coarsens sweep grids for use in tests and smoke runs.
	Quick bool
	// Workers bounds the parallel executor's fan-out at each level
	// (sweep points × trials, and concurrent specs under RunAll).
	// 0 means GOMAXPROCS; 1 forces the serial reference order. Results
	// are byte-identical at any setting.
	Workers int
}

// normalized fills unset options with the paper's defaults: 5 trials
// from seed 1.
func (o Options) normalized() Options {
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Output is what one experiment produces.
type Output struct {
	Figures []*table.Figure
	Tables  []*table.Table
}

// Spec names one experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Options) (Output, error)
}

// All returns every experiment, paper figures first, then validation
// and ablations. Each spec's Run normalizes its options before the
// generator sees them, so generators never repeat that step.
func All() []Spec {
	specs := []Spec{
		{ID: "3.2a", Title: "Total time vs N, k=25 (1000 blocks/run), unsynchronized",
			Run: nSweep("3.2a", "Fetching N Blocks (25 runs)",
				curve{true, 25, 5}, curve{false, 25, 5}, curve{false, 25, 1})},
		{ID: "3.2b", Title: "Total time vs N, k=50, unsynchronized",
			Run: nSweep("3.2b", "Fetching N Blocks (50 runs)",
				curve{true, 50, 10}, curve{true, 50, 5}, curve{false, 50, 10}, curve{false, 50, 1})},
		{ID: "3.2c", Title: "Total time vs N, expanded view, 5 disks, k=25 and 50",
			Run: nSweep("3.2c", "Fetching N Blocks: Expanded View (5 Disks, 25 and 50 runs)",
				curve{true, 25, 5}, curve{true, 50, 5}, curve{false, 25, 5}, curve{false, 50, 5})},
		{ID: "3.3", Title: "Effect of finite-speed CPU, k=25, D=5, N=10", Run: fig33},
		{ID: "3.5a", Title: "Execution time and success ratio vs cache size, 25 runs, 5 disks", Run: fig35a},
		{ID: "3.5b", Title: "Execution time and success ratio vs cache size, 50 runs, 5 disks", Run: fig35b},
		{ID: "3.5c", Title: "Execution time and success ratio vs cache size, 50 runs, 10 disks", Run: fig35c},
		{ID: "anchors", Title: "Closed-form anchors (eqs 1-5) vs simulation", Run: anchors},
		{ID: "concurrency", Title: "Urn-game concurrency vs simulated overlap", Run: concurrency},
		{ID: "tr-markov", Title: "TR Markov analysis: admission-policy parallelism", Run: trMarkov},
		{ID: "ablation-admission", Title: "Cache admission: all-or-demand vs greedy", Run: ablationAdmission},
		{ID: "ablation-runchoice", Title: "Inter-run prefetch run choice policies", Run: ablationRunChoice},
		{ID: "ablation-rotation", Title: "Rotational latency models", Run: ablationRotation},
		{ID: "ablation-placement", Title: "Run placement: round-robin vs clustered vs striped", Run: ablationPlacement},
		{ID: "ablation-scheduler", Title: "Disk queue discipline: FCFS vs SSTF", Run: ablationScheduler},
		{ID: "ablation-seekmodel", Title: "Seek curve: linear vs affine-sqrt", Run: ablationSeekModel},
		{ID: "ext-write-traffic", Title: "Extension: modelling the output write traffic", Run: extWriteTraffic},
		{ID: "ext-multipass", Title: "Extension: multi-pass regime and planner", Run: extMultiPass},
		{ID: "ext-realtrace", Title: "Extension: real merge trace replayed through the simulator", Run: extRealTrace},
		{ID: "ext-adaptive-n", Title: "Extension: adaptive prefetch depth (AIMD controller)", Run: extAdaptiveN},
		// The experiment the paper ran but omitted "for reasons of
		// space": the figure-3.2 sweep at k = 100 runs. The same shapes
		// must hold at the larger merge order.
		{ID: "ext-k100", Title: "Extension: the k=100 sweep the paper omitted",
			Run: nSweep("ext-k100", "Fetching N Blocks (100 runs) — the sweep the paper omitted",
				curve{true, 100, 10}, curve{true, 100, 5}, curve{false, 100, 10}, curve{false, 100, 1})},
		{ID: "ext-modern-disk", Title: "Extension: the strategies on a late-2000s drive", Run: extModernDisk},
		{ID: "ext-degraded-disk", Title: "Extension: one disk fail-slow — strategy sensitivity to a degraded arm", Run: extDegradedDisk},
		{ID: "ext-stall-attribution", Title: "Extension: where the time goes — stall attribution over the buffer sweep", Run: extStallAttribution},
	}
	for i := range specs {
		run := specs[i].Run
		specs[i].Run = func(o Options) (Output, error) { return run(o.normalized()) }
	}
	return specs
}

// Find returns the spec whose ID matches, or an error listing options.
func Find(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	var ids []string
	for _, s := range All() {
		ids = append(ids, s.ID)
	}
	return Spec{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// nGrid returns the intra-run prefetch depths swept on the x axis of
// figure 3.2.
func nGrid(quick bool) []int {
	if quick {
		return []int{1, 5, 15, 30}
	}
	return []int{1, 2, 3, 5, 8, 10, 15, 20, 25, 30}
}

// baseConfig returns the paper's configuration for k runs on d disks
// with intra-run depth n.
func baseConfig(k, d, n int) core.Config {
	cfg := core.Default()
	cfg.K = k
	cfg.D = d
	cfg.N = n
	cfg.CacheBlocks = cfg.DefaultCache()
	return cfg
}

// strategyConfig returns baseConfig under one of the paper's two
// strategies. Inter-run is "All Disks One Run": combined inter+intra
// prefetching with an ample cache (success ratio 1), as the figure-3.2
// curves assume. Intra-run is "Demand Run Only" with the natural kN
// cache.
func strategyConfig(inter bool, k, d, n int) core.Config {
	cfg := baseConfig(k, d, n)
	if inter {
		cfg.InterRun = true
		cfg.CacheBlocks = cache.Unlimited
	}
	return cfg
}

// curve is one strategy line of a figure-3.2-shaped panel: inter-run
// or intra-run prefetching for k runs on d disks.
type curve struct {
	inter bool
	k, d  int
}

// label is the curve's legend in the paper's wording.
func (c curve) label() string {
	strategy, disks := "Demand Run Only", "disks"
	if c.inter {
		strategy = "All Disks One Run"
	}
	if c.d == 1 {
		disks = "disk"
	}
	return fmt.Sprintf("%s (%d runs, %d %s)", strategy, c.k, c.d, disks)
}

// nSweep returns the generator of one figure-3.2-shaped panel: mean
// total time against the intra-run depth N, one series per curve.
func nSweep(id, title string, curves ...curve) func(Options) (Output, error) {
	return func(o Options) (Output, error) {
		f := &table.Figure{ID: id, Title: title, XLabel: "N", YLabel: "total time (seconds)"}
		g := newGrid(o)
		for _, c := range curves {
			s := f.AddSeries(c.label())
			for _, n := range nGrid(o.Quick) {
				g.addPoint(s, float64(n), strategyConfig(c.inter, c.k, c.d, n))
			}
		}
		return g.output(Output{Figures: []*table.Figure{f}})
	}
}

// strategyRow is one strategy of a strategyTable: intra-run depth n,
// with or without inter-run prefetching.
type strategyRow struct {
	name  string
	n     int
	inter bool
}

// strategyTable runs each strategy row at the headline shape (k=25,
// D=5) once per column variant and files the mean total seconds: cell
// j+1 of a row is the row's strategy with variants[j] applied.
func strategyTable(o Options, title string, columns []string, rows []strategyRow, variants ...func(*core.Config)) (Output, error) {
	cells := make([][]string, len(rows))
	g := newGrid(o)
	for i, r := range rows {
		cells[i] = make([]string, 1+len(variants))
		cells[i][0] = r.name
		for j, vary := range variants {
			cell := &cells[i][j+1]
			cfg := strategyConfig(r.inter, 25, 5, r.n)
			vary(&cfg)
			g.add(cfg, func(a core.Aggregate) { *cell = fmt.Sprintf("%.2f", a.TotalTime.Mean()) })
		}
	}
	if err := g.run(); err != nil {
		return Output{}, err
	}
	t := &table.Table{Title: title, Columns: columns}
	for _, row := range cells {
		t.AddRow(row...)
	}
	return Output{Tables: []*table.Table{t}}, nil
}

func fig33(o Options) (Output, error) {
	f := &table.Figure{
		ID: "3.3", Title: "Effect of Finite-Speed CPU (25 runs, 5 disks, N=10)",
		XLabel: "merge time per block (ms)", YLabel: "total execution time (seconds)",
	}
	mts := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	if o.Quick {
		mts = []float64{0, 0.35, 0.7}
	}
	curves := []struct {
		label string
		inter bool
		sync  bool
	}{
		{"All Disks One Run (Unsynchronized)", true, false},
		{"All Disks One Run (Synchronized)", true, true},
		{"Demand Run Only (Unsynchronized)", false, false},
		{"Demand Run Only (Synchronized)", false, true},
	}
	g := newGrid(o)
	for _, c := range curves {
		s := f.AddSeries(c.label)
		for _, mt := range mts {
			cfg := strategyConfig(c.inter, 25, 5, 10)
			cfg.Synchronized = c.sync
			cfg.MergeTimePerBlock = sim.Ms(mt)
			g.addPoint(s, mt, cfg)
		}
	}
	return g.output(Output{Figures: []*table.Figure{f}})
}

// cacheGrid returns the cache sizes swept for figures 3.5/3.6.
func cacheGrid(k, maxSize int, quick bool) []int {
	full := []int{k, 2 * k, 100, 150, 200, 250, 300, 400, 500, 600, 800, 1000, 1200, 1600, 2000, 2400, 2800, 3200, 3500}
	var grid []int
	last := 0
	for _, c := range full {
		if c <= maxSize && c > last {
			if quick && len(grid) > 0 && c < last+max(2*k, 200) {
				continue
			}
			grid = append(grid, c)
			last = c
		}
	}
	return grid
}

// cacheSweep produces the paired figures 3.5x (time) and 3.6x
// (success ratio) for one (k, D) shape.
func cacheSweep(idTime, idRatio string, k, d, maxCache int, o Options) (Output, error) {
	ft := &table.Figure{
		ID:     idTime,
		Title:  fmt.Sprintf("Total Execution Time vs. Cache Size: All Disks One Run (%d runs, %d disks)", k, d),
		XLabel: "cache size (blocks)", YLabel: "execution time (seconds)",
	}
	fr := &table.Figure{
		ID:     idRatio,
		Title:  fmt.Sprintf("Effect of Cache Size: All Disks One Run (%d runs, %d disks)", k, d),
		XLabel: "cache size (blocks)", YLabel: "success ratio",
	}
	g := newGrid(o)
	for _, n := range []int{1, 5, 10} {
		st := ft.AddSeries(fmt.Sprintf("N=%d", n))
		sr := fr.AddSeries(fmt.Sprintf("N=%d", n))
		for _, c := range cacheGrid(k, maxCache, o.Quick) {
			cfg := baseConfig(k, d, n)
			cfg.InterRun = true
			cfg.CacheBlocks = c
			x := float64(c)
			g.add(cfg, func(a core.Aggregate) {
				st.Point(x, a.TotalTime.Mean())
				sr.Point(x, a.SuccessRatio.Mean())
			})
		}
	}
	return g.output(Output{Figures: []*table.Figure{ft, fr}})
}

func fig35a(o Options) (Output, error) { return cacheSweep("3.5a", "3.6a", 25, 5, 1200, o) }
func fig35b(o Options) (Output, error) { return cacheSweep("3.5b", "3.6b", 50, 5, 1600, o) }
func fig35c(o Options) (Output, error) { return cacheSweep("3.5c", "3.6c", 50, 10, 3500, o) }
