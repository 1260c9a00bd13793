package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/table"
)

// anchors reproduces the paper's §3.1/§3.2 spot checks: each row of
// analysis.Anchors, its closed form's prediction against the simulated
// value. The shapes' runs are core.Default's 1000 blocks.
func anchors(o Options) (Output, error) {
	t := &table.Table{
		Title:   "Closed-form anchors vs simulation (seconds)",
		Columns: []string{"case", "equation", "analytic", "simulated", "rel err"},
	}

	g := newGrid(o)
	for _, a := range analysis.Anchors {
		s := a.Shape
		cfg := strategyConfig(s.InterRun, s.K, s.D, s.N)
		cfg.Synchronized = s.Synchronized
		analytic := analysis.Predict(cfg.Disk, s).Seconds()
		g.add(cfg, func(agg core.Aggregate) {
			secs := agg.TotalTime.Mean()
			rel := (secs - analytic) / analytic
			t.AddRow(a.Case, s.Form().String(),
				fmt.Sprintf("%.2f", analytic),
				fmt.Sprintf("%.2f", secs),
				fmt.Sprintf("%+.1f%%", 100*rel))
		})
	}
	return g.output(Output{Tables: []*table.Table{t}})
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
	return g.output(Output{Tables: []*table.Table{t}})
}
