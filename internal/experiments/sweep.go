package experiments

import (
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/table"
)

// grid collects an experiment's simulation points so they can all be
// dispatched to the parallel executor in one flat batch instead of
// being simulated one by one inside nested sweep loops.
//
// Usage: a generator add()s every (configuration, consumer) pair it
// needs — the consumer is a closure that files the point's Aggregate
// into a series or table row — then calls run() once. run() evaluates
// all points (o.Workers bounds the fan-out; every point still runs
// o.Trials replications) and invokes the consumers serially in add()
// order, so figures and tables fill in exactly the order a sequential
// sweep would produce, byte for byte.
type grid struct {
	o      Options
	trials int
	cfgs   []core.Config
	emit   []func(core.Aggregate)
}

// newGrid returns an empty grid running o.Trials replications per point.
func newGrid(o Options) *grid { return &grid{o: o, trials: o.Trials} }

// add schedules cfg as one sweep point, seeded from the options, and
// registers emit to consume its aggregate.
func (g *grid) add(cfg core.Config, emit func(core.Aggregate)) {
	cfg.Seed = g.o.Seed
	g.addSeeded(cfg, emit)
}

// addSeeded schedules cfg with whatever seed it already carries —
// for points that derive per-point seeds themselves.
func (g *grid) addSeeded(cfg core.Config, emit func(core.Aggregate)) {
	g.cfgs = append(g.cfgs, cfg)
	g.emit = append(g.emit, emit)
}

// addPoint plots the across-trial mean total time (seconds) at x on s.
func (g *grid) addPoint(s *table.Series, x float64, cfg core.Config) {
	g.add(cfg, func(a core.Aggregate) { s.Point(x, a.TotalTime.Mean()) })
}

// run evaluates every scheduled point and feeds the consumers in order.
func (g *grid) run() error {
	aggs, err := core.RunGrid(g.cfgs, g.trials, g.o.Workers)
	if err != nil {
		return err
	}
	for i, agg := range aggs {
		g.emit[i](agg)
	}
	return nil
}

// output runs the grid, whose consumers fill out's figures and tables,
// and returns out.
func (g *grid) output(out Output) (Output, error) {
	if err := g.run(); err != nil {
		return Output{}, err
	}
	return out, nil
}

// RunAll executes every spec and returns their outputs in spec order.
// Specs are independent, so they run concurrently on the shared
// executor (o.Workers bounds each level of the fan-out; 1 forces the
// fully serial reference order). Output is deterministic either way:
// each spec assembles its own figures, and the slice preserves input
// order.
func RunAll(specs []Spec, o Options) ([]Output, error) {
	workers := o.Workers
	if len(specs) == 1 {
		workers = 1
	}
	return parallel.Map(len(specs), workers, func(i int) (Output, error) {
		return specs[i].Run(o)
	})
}
