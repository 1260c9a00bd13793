package core

import (
	"context"
	"fmt"

	"repro/internal/parallel"
)

// RunGrid simulates every configuration in cfgs for trials independent
// replications each (seeds cfg.Seed, cfg.Seed+1, ...) and returns one
// Aggregate per configuration, in input order. The full point × trial
// grid is flattened into one job list and executed on the shared
// bounded-worker pool (workers <= 0 means GOMAXPROCS), so a sweep
// saturates the machine even when each point runs few trials.
//
// Determinism: each job's seed derives from its configuration and trial
// index alone, and results are aggregated in (point, trial) order, so
// the outcome is byte-identical to a serial sweep regardless of worker
// count. Each job builds its own depletion model from the
// configuration's WorkloadFactory. Configurations carrying a Trace
// recorder or an OnRequest observer force the whole grid serial: the
// callback and the recorder are not synchronized. A recorder observes
// one run, so a traced configuration is refused with trials > 1.
func RunGrid(cfgs []Config, trials, workers int) ([]Aggregate, error) {
	return RunGridContext(context.Background(), cfgs, trials, workers)
}

// RunGridContext is RunGrid with cooperative cancellation: once ctx is
// done no further (point, trial) jobs start, in-flight jobs finish, and
// the call returns ctx.Err() with no aggregates. Cancellation
// granularity is one simulation job — a single pathological Run is
// bounded by Config.MaxSimTime, not by ctx.
func RunGridContext(ctx context.Context, cfgs []Config, trials, workers int) ([]Aggregate, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("core: trials = %d", trials)
	}
	for i, cfg := range cfgs {
		if trials > 1 && cfg.Trace != nil {
			return nil, fmt.Errorf(
				"core: config %d: a Trace recorder observes one run and cannot be shared across %d trials",
				i, trials)
		}
		if cfg.Trace != nil || cfg.OnRequest != nil {
			workers = 1
		}
	}
	jobs := len(cfgs) * trials
	results := make([]Result, jobs)
	errs := make([]error, jobs)
	if err := parallel.DoContext(ctx, jobs, workers, func(j int) {
		point, trial := j/trials, j%trials
		c := cfgs[point]
		c.Seed += uint64(trial)
		results[j], errs[j] = run(c, trial)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	aggs := make([]Aggregate, len(cfgs))
	for i, cfg := range cfgs {
		aggs[i] = aggregate(cfg, results[i*trials:(i+1)*trials])
	}
	return aggs, nil
}

// aggregate folds one configuration's trial results, in trial order, so
// the floating-point sums match a serial run exactly.
func aggregate(cfg Config, results []Result) Aggregate {
	agg := Aggregate{Config: cfg, Trials: len(results)}
	for _, res := range results {
		agg.Results = append(agg.Results, res)
		agg.TotalTime.Add(res.TotalTime.Seconds())
		agg.SuccessRatio.Add(res.SuccessRatio())
		agg.Concurrency.Add(res.MeanConcurrencyWhenBusy)
		agg.StallTime.Add(res.StallTime.Seconds())
	}
	return agg
}
