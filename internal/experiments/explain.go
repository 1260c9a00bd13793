package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/trace"
)

// extStallAttribution replays the paper's figure-3.5a buffer sweep
// (k=25 runs, D=5 disks, N=10) with a finite-speed CPU and a trace
// recorder attached to every point, then pushes each trace through the
// explain layer to decompose the makespan into where the time actually
// went. The output is a pair of stacked-bar figures — one for combined
// inter+intra prefetching, one for demand-run-only — whose segments sum
// to the makespan at every cache size (the conservation invariant,
// drawn). Traced points run single-trial and one at a time: each
// point's report is built and checked before the next run starts, so
// only one recorder is live at once. Determinism makes one trial exact,
// not noisy.
func extStallAttribution(o Options) (Output, error) {
	fInter := stallFigure("ext-stall-attribution",
		"Extension: where the time goes — All Disks One Run (25 runs, 5 disks, N=10)")
	fIntra := stallFigure("ext-stall-attribution-intra",
		"Extension: where the time goes — Demand Run Only (25 runs, 5 disks, N=10)")

	for _, inter := range []bool{true, false} {
		fig := fIntra
		if inter {
			fig = fInter
		}
		for _, c := range cacheGrid(25, 1200, o.Quick) {
			cfg := baseConfig(25, 5, 10)
			cfg.InterRun = inter
			cfg.CacheBlocks = c
			cfg.MergeTimePerBlock = sim.Ms(0.3)
			cfg.Seed = o.Seed
			cfg.Trace = trace.New(0)
			res, err := core.Run(cfg)
			if err != nil {
				return Output{}, err
			}
			rep := explain.Build(cfg.Trace, explain.Options{Makespan: res.TotalTime})
			if err := rep.Check(res.StallTime); err != nil {
				return Output{}, fmt.Errorf("explain conservation violated: cache %d blocks: %w", c, err)
			}
			stackPoint(fig, float64(c), rep)
		}
	}
	return Output{Figures: []*table.Figure{fInter, fIntra}}, nil
}

// stallFigure allocates one stacked attribution figure with the fixed
// eight-component legend. Series order is stacking order, bottom-up:
// useful work first, then the attributed stall phases, then the
// leftovers, idle on top.
func stallFigure(id, title string) *table.Figure {
	f := &table.Figure{
		ID:      id,
		Title:   title,
		XLabel:  "cache size (blocks)",
		YLabel:  "time (seconds)",
		Stacked: true,
	}
	for _, label := range []string{
		"compute", "initial load",
		"stall: seek", "stall: rotation", "stall: transfer",
		"stall: queued", "stall: other", "cpu idle",
	} {
		f.AddSeries(label)
	}
	return f
}

// stackPoint files one report's CPU-time decomposition at x, in
// seconds. The eight components partition the makespan exactly:
// CPU compute + initial load + demand stall + idle tile the CPU track
// (explain.Check enforces it), and the stall slice is further split by
// the blocking disk's phase. "stall: other" gathers retry, outage and
// anything the attribution cascade could not pin to a fetch.
func stackPoint(f *table.Figure, x float64, rep *explain.Report) {
	// A derived residual (idle) can land a hair below zero from float
	// association; clamp so the CSV never prints "-0".
	sec := func(t sim.Time) float64 {
		if t < 0 && t > -explain.Epsilon {
			return 0
		}
		return float64(t) / 1000
	}
	other := rep.Stall.ByPhase.Retry + rep.Stall.ByPhase.Outage + rep.Stall.Unattributed
	for i, v := range []float64{
		sec(rep.CPU.Compute),
		sec(rep.CPU.InitialLoad),
		sec(rep.Stall.ByPhase.Seek),
		sec(rep.Stall.ByPhase.Rotation),
		sec(rep.Stall.ByPhase.Transfer),
		sec(rep.Stall.Queued),
		sec(other),
		sec(rep.CPU.Idle),
	} {
		f.Series[i].Point(x, v)
	}
}
