package experiments

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/extsort"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/table"
)

// extWriteTraffic probes the paper's separate-write-disks assumption:
// it compares the headline configuration with no output modelling,
// with a separate output array, and with writes sharing the input
// arms. The paper's exclusion of write traffic is justified exactly
// when the first two rows coincide.
func extWriteTraffic(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Write traffic (k=25, D=5, N=10, inter-run, ample cache)",
		Columns: []string{"output model", "total (s)", "write stall (s)"},
	}
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"ignored (paper)", func(c *core.Config) {}},
		{"separate array, 5 disks", func(c *core.Config) {
			c.Write = core.WriteConfig{Enabled: true, Disks: 5}
		}},
		{"separate array, 2 disks", func(c *core.Config) {
			c.Write = core.WriteConfig{Enabled: true, Disks: 2}
		}},
		{"shared with input disks", func(c *core.Config) {
			c.Write = core.WriteConfig{Enabled: true, Shared: true}
		}},
	}
	g := newGrid(o)
	for _, cs := range cases {
		cfg := strategyConfig(true, 25, 5, 10)
		cs.mut(&cfg)
		g.add(cfg, func(a core.Aggregate) {
			var stall float64
			for _, r := range a.Results {
				stall += r.WriteStall.Seconds()
			}
			stall /= float64(len(a.Results))
			t.AddRow(cs.name, fmt.Sprintf("%.2f", a.TotalTime.Mean()), fmt.Sprintf("%.2f", stall))
		})
	}
	return g.output(Output{Tables: []*table.Table{t}})
}

// extMultiPass probes the regime the paper does not study: a full
// multi-pass sort where later passes merge few, very long runs. There
// the inter-run policy's forced per-disk refills let lone runs hoard
// the cache, the success ratio collapses with run length, and plain
// intra-run prefetching wins — the finding behind the calibrated
// planner's per-pass strategy choice.
func extMultiPass(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Extension: few long runs (k=18, D=5, N=16, C=1024) — inter-run degrades with run length",
		Columns: []string{"blocks/run", "inter+intra (ms/blk)", "inter success", "intra N=56 (ms/blk)"},
	}
	lengths := []int{200, 1000, 5000, 20000}
	if o.Quick {
		lengths = []int{200, 5000}
	}
	g := newGrid(o)
	g.trials = 1
	rows := make([][]string, len(lengths))
	for i, bpr := range lengths {
		rows[i] = []string{fmt.Sprintf("%d", bpr), "", "", ""}
		row := rows[i]
		inter := core.Default()
		inter.K, inter.D, inter.BlocksPerRun, inter.N = 18, 5, bpr, 16
		inter.InterRun = true
		inter.CacheBlocks = 1024
		intra := inter
		intra.InterRun = false
		intra.N = min(56, bpr)
		g.add(inter, func(a core.Aggregate) {
			res := a.Results[0]
			row[1] = fmt.Sprintf("%.3f", float64(res.TotalTime)/float64(res.MergedBlocks))
			row[2] = fmt.Sprintf("%.3f", res.SuccessRatio())
		})
		g.add(intra, func(a core.Aggregate) {
			res := a.Results[0]
			row[3] = fmt.Sprintf("%.3f", float64(res.TotalTime)/float64(res.MergedBlocks))
		})
	}
	if err := g.run(); err != nil {
		return Output{}, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}

	// And the planner's answer: calibrated vs analytic for a deep sort.
	// The planner comparison runs its own probe simulations, so skip it
	// in quick mode.
	if o.Quick {
		return Output{Tables: []*table.Table{t}}, nil
	}
	pt := &table.Table{
		Title:   "Extension: multi-pass planner (1M blocks, memory 1024, D=5)",
		Columns: []string{"planner", "passes", "strategy", "merge estimate (s)"},
	}
	j := plan.Job{TotalBlocks: 1 << 20, MemoryBlocks: 1024, D: 5, InterRun: true}
	analytic, err := plan.Build(j)
	if err != nil {
		return Output{}, err
	}
	calibrated, err := plan.BuildCalibrated(j, o.Seed)
	if err != nil {
		return Output{}, err
	}
	describe := func(name string, p plan.Plan) {
		strategy := "intra"
		if len(p.Passes) > 0 && p.Passes[0].InterRun {
			strategy = "inter+intra"
		}
		pt.AddRow(name, fmt.Sprintf("%d", p.NumPasses()), strategy,
			fmt.Sprintf("%.0f", p.Estimated.Seconds()))
	}
	describe("analytic (eq 4/5)", analytic)
	describe("calibrated (simulation-scored)", calibrated)
	return Output{Tables: []*table.Table{t, pt}}, nil
}

// extModernDisk re-runs the headline comparison on a late-2000s SATA
// drive: transfer time shrinks ~65x while rotational latency only
// halves, so the mechanical overheads the paper's prefetching
// amortizes dominate even harder — the strategies age well.
func extModernDisk(o Options) (Output, error) {
	drive := func(params disk.Params) func(*core.Config) {
		return func(c *core.Config) { c.Disk = params }
	}
	return strategyTable(o, "Extension: 1992 RA-series vs late-2000s SATA (k=25, D=5, unsynchronized)",
		[]string{"strategy", "1992 drive (s)", "modern drive (s)"},
		[]strategyRow{
			{"no prefetch", 1, false},
			{"intra-run N=10", 10, false},
			{"inter+intra N=10", 10, true},
			{"inter+intra N=30", 30, true},
		},
		drive(disk.PaperParams()), drive(disk.ModernParams()))
}

// extAdaptiveN compares the AIMD depth controller against fixed
// prefetch depths over the figure-3.5a cache sweep: the paper observes
// that every cache size has its own optimal N; the controller should
// track it without per-configuration tuning.
func extAdaptiveN(o Options) (Output, error) {
	f := &table.Figure{
		ID: "ext-adaptive-n", Title: "Adaptive prefetch depth (25 runs, 5 disks, inter-run)",
		XLabel: "cache size (blocks)", YLabel: "execution time (seconds)",
	}
	depth := &table.Figure{
		ID: "ext-adaptive-n-depth", Title: "Controller mean depth vs cache size",
		XLabel: "cache size (blocks)", YLabel: "mean prefetch depth",
	}
	caches := cacheGrid(25, 1200, o.Quick)
	g := newGrid(o)
	for _, n := range []int{1, 5, 10} {
		s := f.AddSeries(fmt.Sprintf("fixed N=%d", n))
		for _, c := range caches {
			cfg := baseConfig(25, 5, n)
			cfg.InterRun = true
			cfg.CacheBlocks = c
			g.addPoint(s, float64(c), cfg)
		}
	}
	s := f.AddSeries("adaptive (bound 30)")
	sd := depth.AddSeries("adaptive (bound 30)")
	for _, c := range caches {
		cfg := baseConfig(25, 5, 30)
		cfg.AdaptiveN = true
		cfg.InterRun = true
		cfg.CacheBlocks = c
		x := float64(c)
		g.add(cfg, func(a core.Aggregate) {
			var meanDepth float64
			for _, r := range a.Results {
				meanDepth += r.MeanDepth
			}
			meanDepth /= float64(len(a.Results))
			s.Point(x, a.TotalTime.Mean())
			sd.Point(x, meanDepth)
		})
	}
	return g.output(Output{Figures: []*table.Figure{f, depth}})
}

// randomRecords is an extsort.RecordReader of left records, each filled
// with little-endian words drawn from r in order; a record's last
// partial word takes the draw's low bytes. It streams its input, so a
// sort's memory holds its runs and never the whole input as well.
type randomRecords struct {
	r    *rng.Stream
	left int
	rec  []byte
}

// Next implements extsort.RecordReader.
func (s *randomRecords) Next() ([]byte, error) {
	if s.left == 0 {
		return nil, io.EOF
	}
	s.left--
	var word [8]byte
	for i := 0; i < len(s.rec); i += 8 {
		binary.LittleEndian.PutUint64(word[:], s.r.Uint64())
		copy(s.rec[i:], word[:])
	}
	return s.rec, nil
}

// extRealTrace sorts real records and replays the merge's actual
// block-depletion trace through the simulator, comparing the strategy
// ordering against the paper's random-depletion model, and random
// prefetch-run choice against forecast-driven (oracle) choice.
func extRealTrace(o Options) (Output, error) {
	sortCfg := extsort.DefaultConfig()
	sortCfg.MemoryBlocks = 200
	records := 500_000
	if o.Quick {
		records = 100_000
		sortCfg.MemoryBlocks = 100
	}

	in := &randomRecords{r: rng.New(o.Seed), left: records, rec: make([]byte, sortCfg.RecordSize)}
	out := extsort.NewCountingWriter(sortCfg)
	st, err := extsort.Sort(sortCfg, 0, in, func() extsort.RunStore { return extsort.NewMemStore() }, out)
	if err != nil {
		return Output{}, err
	}
	if !out.Ordered() {
		return Output{}, fmt.Errorf("experiments: real sort produced unordered output")
	}
	merge := st.Passes[0].Groups[0]

	t := &table.Table{
		Title: fmt.Sprintf("Extension: real merge trace (%d records, %d runs) replayed through the simulator (D=5)",
			st.Records, st.Runs),
		Columns: []string{"strategy", "total (s)", "overlap"},
	}
	// The run-choice comparison only bites at a constrained cache, so
	// the inter-run rows run both ample and tight configurations.
	cases := []struct {
		name   string
		n      int
		inter  bool
		policy core.PrefetchRunPolicy
		cache  int
	}{
		{"no prefetch", 1, false, core.RandomRun, cache.Unlimited},
		{"intra-run N=10", 10, false, core.RandomRun, cache.Unlimited},
		{"inter+intra N=10, ample cache", 10, true, core.RandomRun, cache.Unlimited},
		{"inter+intra N=10, C=700, random", 10, true, core.RandomRun, 700},
		{"inter+intra N=10, C=700, forecast-oracle", 10, true, core.OracleRun, 700},
		{"inter+intra N=10, C=700, least-buffered", 10, true, core.LeastBufferedRun, 700},
	}
	// Every case replays the same captured trace through its own fresh
	// Sequence model, so the replays are independent simulation points.
	results, err := parallel.Map(len(cases), o.Workers, func(i int) (core.Result, error) {
		cs := cases[i]
		base := core.Default()
		base.D = 5
		base.N = cs.n
		base.InterRun = cs.inter
		base.RunPolicy = cs.policy
		base.CacheBlocks = cs.cache
		base.Seed = o.Seed
		return extsort.SimulateMerge(merge, base)
	})
	if err != nil {
		return Output{}, err
	}
	for i, cs := range cases {
		t.AddRow(cs.name,
			fmt.Sprintf("%.2f", results[i].TotalTime.Seconds()),
			fmt.Sprintf("%.2f", results[i].MeanConcurrencyWhenBusy))
	}
	return Output{Tables: []*table.Table{t}}, nil
}
