package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/table"
)

// anchors reproduces the paper's §3.1/§3.2 spot checks: each analytic
// expression evaluated at the configurations quoted in the prose,
// against the simulated value.
func anchors(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Closed-form anchors vs simulation (seconds)",
		Columns: []string{"case", "equation", "analytic", "simulated", "rel err"},
	}

	type anchorCase struct {
		name     string
		eq       string
		analytic float64
		cfg      core.Config
	}

	mk := func(k, d, n int, inter, sync bool) core.Config {
		cfg := strategyConfig(inter, k, d, n)
		cfg.Synchronized = sync
		return cfg
	}
	model := func(k, d, n int) analysis.Model {
		cfg := core.Default()
		return analysis.FromConfig(cfg.Disk, k, d, n, cfg.BlocksPerRun)
	}

	cases := []anchorCase{
		{
			name: "no prefetch, k=25, D=1", eq: "eq 1",
			analytic: model(25, 1, 1).TotalTime(model(25, 1, 1).Eq1NoPrefetchSingleDisk(), 1000).Seconds(),
			cfg:      mk(25, 1, 1, false, false),
		},
		{
			name: "no prefetch, k=50, D=1", eq: "eq 1",
			analytic: model(50, 1, 1).TotalTime(model(50, 1, 1).Eq1NoPrefetchSingleDisk(), 1000).Seconds(),
			cfg:      mk(50, 1, 1, false, false),
		},
		{
			name: "intra N=10, k=25, D=1", eq: "eq 2",
			analytic: model(25, 1, 10).TotalTime(model(25, 1, 10).Eq2IntraSingleDisk(), 1000).Seconds(),
			cfg:      mk(25, 1, 10, false, false),
		},
		{
			name: "intra N=10, k=50, D=1", eq: "eq 2",
			analytic: model(50, 1, 10).TotalTime(model(50, 1, 10).Eq2IntraSingleDisk(), 1000).Seconds(),
			cfg:      mk(50, 1, 10, false, false),
		},
		{
			name: "no prefetch, k=25, D=5", eq: "eq 3",
			analytic: model(25, 5, 1).TotalTime(model(25, 5, 1).Eq3NoPrefetchMultiDisk(), 1000).Seconds(),
			cfg:      mk(25, 5, 1, false, false),
		},
		{
			name: "no prefetch, k=50, D=10", eq: "eq 3",
			analytic: model(50, 10, 1).TotalTime(model(50, 10, 1).Eq3NoPrefetchMultiDisk(), 1000).Seconds(),
			cfg:      mk(50, 10, 1, false, false),
		},
		{
			name: "sync intra N=10, k=25, D=5", eq: "eq 4",
			analytic: model(25, 5, 10).TotalTime(model(25, 5, 10).Eq4IntraMultiDiskSync(), 1000).Seconds(),
			cfg:      mk(25, 5, 10, false, true),
		},
		{
			name: "sync inter N=10, k=25, D=5", eq: "eq 5",
			analytic: model(25, 5, 10).TotalTime(model(25, 5, 10).Eq5InterMultiDiskSync(), 1000).Seconds(),
			cfg:      mk(25, 5, 10, true, true),
		},
		{
			name: "unsync intra N=30, k=25, D=5 (asymptotic)", eq: "eq4/urn",
			analytic: model(25, 5, 30).IntraUnsyncAsymptotic(1000).Seconds(),
			cfg:      mk(25, 5, 30, false, false),
		},
	}

	g := newGrid(o)
	for _, c := range cases {
		g.add(c.cfg, func(a core.Aggregate) {
			secs := a.TotalTime.Mean()
			rel := (secs - c.analytic) / c.analytic
			t.AddRow(c.name, c.eq,
				fmt.Sprintf("%.2f", c.analytic),
				fmt.Sprintf("%.2f", secs),
				fmt.Sprintf("%+.1f%%", 100*rel))
		})
	}
	if err := g.run(); err != nil {
		return Output{}, err
	}
	return Output{Tables: []*table.Table{t}}, nil
}

// trMarkov reconstructs the companion TR's Markov analysis that the
// paper cites for its admission-policy choice: D disks with one run
// each behind a C-block cache; steady-state average I/O parallelism of
// all-or-nothing vs greedy admission, from the exact chain.
func trMarkov(o Options) (Output, error) {
	t := &table.Table{
		Title:   "TR Markov model: steady-state I/O parallelism (one run per disk)",
		Columns: []string{"D", "C", "all-or-nothing", "greedy-fill", "winner"},
	}
	// Larger D·C shapes explode the partition state space; D=10 at
	// C=30 (~3k states) is the practical ceiling for an exact solve.
	shapes := []struct{ d, c int }{
		{5, 10}, {5, 15}, {5, 20}, {5, 30}, {5, 50},
		{10, 30},
	}
	if o.Quick {
		shapes = shapes[:3]
	}
	// The exact chain solves are CPU-bound and independent per shape, so
	// they fan out like simulation points; rows are filed in shape order.
	type solved struct{ aon, greedy float64 }
	results, err := parallel.Map(len(shapes), o.Workers, func(i int) (solved, error) {
		s := shapes[i]
		aonChain, err := analysis.NewMarkovChain(s.d, s.c, analysis.AllOrNothing)
		if err != nil {
			return solved{}, err
		}
		aon, _, err := aonChain.Solve(1e-10, 8000)
		if err != nil {
			return solved{}, err
		}
		gChain, err := analysis.NewMarkovChain(s.d, s.c, analysis.GreedyFill)
		if err != nil {
			return solved{}, err
		}
		greedy, _, err := gChain.Solve(1e-10, 8000)
		if err != nil {
			return solved{}, err
		}
		return solved{aon: aon, greedy: greedy}, nil
	})
	if err != nil {
		return Output{}, err
	}
	for i, s := range shapes {
		winner := "all-or-nothing"
		if results[i].greedy > results[i].aon {
			winner = "greedy-fill"
		}
		t.AddRow(fmt.Sprintf("%d", s.d), fmt.Sprintf("%d", s.c),
			fmt.Sprintf("%.3f", results[i].aon), fmt.Sprintf("%.3f", results[i].greedy), winner)
	}
	return Output{Tables: []*table.Table{t}}, nil
}

// concurrency compares the simulated average disk overlap of
// unsynchronized intra-run prefetching at large N against the exact
// urn-game expectation and its √(πD/2) − 1/3 asymptote.
func concurrency(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Average I/O overlap: urn game vs simulation (N=30, unsynchronized intra-run)",
		Columns: []string{"D", "k", "urn exact", "asymptote", "simulated"},
	}
	shapes := []struct{ d, k int }{{5, 25}, {10, 50}, {20, 100}}
	if o.Quick {
		shapes = shapes[:2]
	}
	g := newGrid(o)
	for _, s := range shapes {
		g.add(strategyConfig(false, s.k, s.d, 30), func(a core.Aggregate) {
			t.AddRow(
				fmt.Sprintf("%d", s.d),
				fmt.Sprintf("%d", s.k),
				fmt.Sprintf("%.2f", analysis.UrnGameExpectedLength(s.d)),
				fmt.Sprintf("%.2f", analysis.UrnGameAsymptote(s.d)),
				fmt.Sprintf("%.2f", a.Concurrency.Mean()),
			)
		})
	}
	if err := g.run(); err != nil {
		return Output{}, err
	}
	return Output{Tables: []*table.Table{t}}, nil
}
