package extsort

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// SimulateMerge times the merge phase of a completed sort under the
// paper's I/O model: it replays the sort's block-depletion trace
// through the simulation engine with the given strategy configuration.
// base supplies the strategy knobs (D, N, InterRun, Synchronized,
// CacheBlocks, disk parameters...); K, run lengths and the workload are
// taken from the sort.
//
// This is the link between the two halves of the library: the paper
// validates its strategies under a random depletion model, and this
// function answers "what would my actual merge have cost" for real
// data.
func SimulateMerge(runBlocks []int, trace *Trace, base core.Config) (core.Result, error) {
	if len(runBlocks) == 0 {
		return core.Result{}, fmt.Errorf("extsort: no runs to simulate")
	}
	if trace == nil || len(trace.Runs) == 0 {
		return core.Result{}, fmt.Errorf("extsort: empty depletion trace")
	}
	total := 0
	for _, n := range runBlocks {
		total += n
	}
	if len(trace.Runs) != total {
		return core.Result{}, fmt.Errorf("extsort: trace has %d depletions for %d blocks", len(trace.Runs), total)
	}
	cfg := base
	cfg.K = len(runBlocks)
	cfg.RunLengths = runBlocks
	cfg.BlocksPerRun = 0
	cfg.WorkloadFactory = func(int) workload.Model { return &workload.Sequence{Runs: trace.Runs} }
	if cfg.D > cfg.K {
		cfg.D = cfg.K
	}
	if cfg.CacheBlocks < cfg.K {
		cfg.CacheBlocks = cfg.DefaultCache()
	}
	return core.Run(cfg)
}
