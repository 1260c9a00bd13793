package extsort

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/workload"
)

// SimulateMerge times one merge group of a completed sort under the
// paper's I/O model: it replays the group's block-depletion trace
// through the simulation engine under MergeConfig(g, base).
//
// This is the link between the two halves of the library: the paper
// validates its strategies under a random depletion model, and this
// function answers "what would my actual merge have cost" for real
// data.
func SimulateMerge(g Group, base core.Config) (core.Result, error) {
	cfg, err := MergeConfig(g, base)
	if err != nil {
		return core.Result{}, err
	}
	return core.Run(cfg)
}

// MergeConfig returns the engine configuration that SimulateMerge runs
// g under. base supplies the strategy knobs (D, N, InterRun,
// Synchronized, CacheBlocks, disk parameters...); K, run lengths and
// the workload are taken from the group. D is clamped to K and N to the
// longest run, and a cache below one block per run is raised to the
// strategy's default.
func MergeConfig(g Group, base core.Config) (core.Config, error) {
	if len(g.RunBlocks) == 0 {
		return core.Config{}, fmt.Errorf("extsort: no runs to simulate")
	}
	if len(g.Trace.Runs) == 0 {
		return core.Config{}, fmt.Errorf("extsort: empty depletion trace")
	}
	total := 0
	for _, n := range g.RunBlocks {
		total += n
	}
	if len(g.Trace.Runs) != total {
		return core.Config{}, fmt.Errorf("extsort: trace has %d depletions for %d blocks", len(g.Trace.Runs), total)
	}
	cfg := base
	cfg.K = len(g.RunBlocks)
	cfg.RunLengths = g.RunBlocks
	cfg.BlocksPerRun = 0
	cfg.WorkloadFactory = func(int) workload.Model { return &workload.Sequence{Runs: g.Trace.Runs} }
	if cfg.D > cfg.K {
		cfg.D = cfg.K
	}
	if longest := slices.Max(g.RunBlocks); cfg.N > longest {
		cfg.N = longest
	}
	if cfg.CacheBlocks < cfg.K {
		cfg.CacheBlocks = cfg.DefaultCache()
	}
	return cfg, nil
}
