package extsort

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Group is one merge of a pass: the block count of each input run, in
// run order, and the order in which the merge exhausted their blocks.
// SimulateMerge replays it through the paper's I/O model.
type Group struct {
	RunBlocks []int
	Trace     Trace
}

// Pass is one merge pass. Each of its groups, in run order, writes one
// run of the next pass, or the output on the last pass.
type Pass struct {
	RunsIn int
	Groups []Group
}

// Result describes a completed sort.
type Result struct {
	Records int64 // records read, and written by every pass
	Runs    int   // runs formed before the first pass
	Passes  []Pass
}

// Sort sorts input into out: run formation, then merge passes of at
// most fanIn runs per group until one group merges into out. fanIn 0
// merges every run in one pass. newStore supplies the store of the
// formed runs and of each intermediate pass's output runs. A pass opens
// each of its runs once, holds at most one group's readers open, and
// must write every record that was read. The result carries every
// group's real depletion trace, ready for SimulateMerge.
func Sort(cfg Config, fanIn int, input RecordReader, newStore func() RunStore, out RecordWriter) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if fanIn < 0 || fanIn == 1 {
		return Result{}, fmt.Errorf("extsort: fan-in %d (want 0 for one pass, or at least 2)", fanIn)
	}
	store := newStore()
	records, err := FormRuns(cfg, input, store)
	if err != nil {
		return Result{}, err
	}
	res := Result{Records: records, Runs: store.NumRuns()}
	for runs := res.Runs; runs > 0; runs = store.NumRuns() {
		width := fanIn
		if width == 0 || width > runs {
			width = runs
		}
		var next RunStore
		if width < runs {
			next = newStore()
		}
		pass := Pass{RunsIn: runs}
		var written int64
		for lo := 0; lo < runs; lo += width {
			dst := out
			var sink *blockSink
			if next != nil {
				if sink, err = newRunSink(cfg, next); err != nil {
					return Result{}, err
				}
				dst = sink
			}
			g, n, err := mergeGroup(cfg, store, lo, min(lo+width, runs), dst)
			if err == nil && sink != nil {
				err = sink.Close()
			}
			if err != nil {
				return Result{}, err
			}
			pass.Groups = append(pass.Groups, g)
			written += n
		}
		if written != records {
			return Result{}, fmt.Errorf("extsort: pass %d wrote %d of %d records", len(res.Passes), written, records)
		}
		res.Passes = append(res.Passes, pass)
		if next == nil {
			break
		}
		store = next
	}
	return res, nil
}

// mergeGroup merges runs [lo, hi) of store into out. It opens each run
// once and closes every reader before it returns.
func mergeGroup(cfg Config, store RunStore, lo, hi int, out RecordWriter) (Group, int64, error) {
	var g Group
	runs := make([]RunReader, 0, hi-lo)
	defer func() {
		for _, r := range runs {
			_ = r.Close() // read-only: a failed close loses nothing
		}
	}()
	for i := lo; i < hi; i++ {
		r, err := store.OpenRun(i)
		if err != nil {
			return Group{}, 0, err
		}
		runs = append(runs, r)
		g.RunBlocks = append(g.RunBlocks, r.Blocks())
	}
	n, err := Merge(cfg, runs, out, &g.Trace)
	return g, n, err
}

// SimulatePasses times every merge group of a sort under the given
// strategy configuration and returns the per-pass and total simulated
// I/O times. Groups within a pass run on distinct data, so their times
// add when executed back to back on one input array (the conservative
// sequential schedule).
func SimulatePasses(res Result, base core.Config) (perPass []sim.Time, total sim.Time, err error) {
	for i, pass := range res.Passes {
		var passTime sim.Time
		for g, group := range pass.Groups {
			r, err := SimulateMerge(group, base)
			if err != nil {
				return nil, 0, fmt.Errorf("extsort: pass %d group %d: %w", i, g, err)
			}
			passTime += r.TotalTime
		}
		perPass = append(perPass, passTime)
		total += passTime
	}
	return perPass, total, nil
}
