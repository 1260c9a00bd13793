package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Result reports one simulated merge.
type Result struct {
	Config Config

	// TotalTime is the simulated instant at which the last block was
	// merged (including the initial cache load).
	TotalTime sim.Time

	// MergedBlocks is K * BlocksPerRun.
	//detlint:unit blocks
	MergedBlocks int64

	// Decisions counts I/O decision points (demand fetches issued);
	// FullPrefetches counts those admitted at full batch size. Their
	// ratio is the paper's success ratio.
	Decisions      int64
	FullPrefetches int64

	// StallTime is the total simulated time the CPU spent waiting on
	// fetches.
	StallTime sim.Time

	// MeanConcurrency is the time-average number of busy disks over the
	// whole merge; MeanConcurrencyWhenBusy conditions on at least one
	// disk being busy (the paper's "average overlap").
	MeanConcurrency         float64
	MeanConcurrencyWhenBusy float64

	// PerDisk holds each disk's accumulated statistics.
	PerDisk []disk.Stats

	// CachePeak is the high-water occupancy in blocks.
	CachePeak int64

	// Output-traffic metrics (zero unless Config.Write.Enabled).
	//detlint:unit blocks
	WrittenBlocks int64
	WriteStall    sim.Time
	// PerWriteDisk holds the separate output array's statistics; empty
	// in shared mode, where writes appear inside PerDisk.
	PerWriteDisk []disk.Stats

	// MeanDepth is the average prefetch depth used at I/O decisions —
	// equal to Config.N for fixed-depth runs, the controller's average
	// under AdaptiveN.
	MeanDepth float64

	// StallHistogram holds the per-miss CPU stall times in ms over
	// [0, 200): the latency a user-visible merge pause costs. Use
	// Quantile for percentiles.
	StallHistogram *stats.Histogram

	// TimedOut reports that Config.MaxSimTime elapsed before the merge
	// finished; counters reflect the partial run up to the horizon.
	TimedOut bool

	// Faults totals the per-disk fault counters (all zero unless
	// Config.Faults is set); the per-disk breakdown lives in PerDisk.
	Faults FaultTotals
}

// FaultTotals aggregates the fault-injection counters across disks.
type FaultTotals struct {
	// Retries counts transient read errors recovered by re-reads.
	Retries int64
	// RetryTime is the service time those re-reads added.
	RetryTime sim.Time
	// OutageTime is dispatch time lost waiting out outage windows.
	OutageTime sim.Time
	// SlowdownTime is service time added by fail-slow multipliers.
	SlowdownTime sim.Time
}

// Any reports whether any fault counter is non-zero.
func (f FaultTotals) Any() bool {
	return f.Retries != 0 || f.RetryTime != 0 || f.OutageTime != 0 || f.SlowdownTime != 0
}

// add folds one disk's fault counters into the totals.
func (f *FaultTotals) add(s disk.Stats) {
	f.Retries += s.Retries
	f.RetryTime += s.RetryTime
	f.OutageTime += s.OutageTime
	f.SlowdownTime += s.SlowdownTime
}

// StallP95 returns the 95th-percentile per-miss stall.
func (r Result) StallP95() sim.Time {
	if r.StallHistogram == nil || r.StallHistogram.N() == 0 {
		return 0
	}
	return sim.Ms(r.StallHistogram.Quantile(0.95))
}

// SuccessRatio returns FullPrefetches/Decisions, the probability that a
// prefetch could be initiated at full size (1 when no decisions were
// needed, matching the paper's convention for ample caches).
func (r Result) SuccessRatio() float64 {
	if r.Decisions == 0 {
		return 1
	}
	return float64(r.FullPrefetches) / float64(r.Decisions)
}

// MeanBlockTime returns TotalTime divided by the merged block count:
// the effective per-block I/O time the analytic expressions predict for
// an infinitely fast CPU.
func (r Result) MeanBlockTime() sim.Time {
	if r.MergedBlocks == 0 {
		return 0
	}
	//detlint:allow simunits deliberate ms-per-block ratio: the conversion is the dimensional bridge
	return r.TotalTime / sim.Time(r.MergedBlocks)
}

// String summarizes the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("%s k=%d D=%d N=%d C=%d: total=%.2fs success=%.3f overlap=%.2f",
		r.Config.StrategyName(), r.Config.K, r.Config.D, r.Config.N, r.Config.CacheBlocks,
		r.TotalTime.Seconds(), r.SuccessRatio(), r.MeanConcurrencyWhenBusy)
}

// Aggregate summarizes repeated trials of one configuration.
type Aggregate struct {
	Config Config
	Trials int

	TotalTime    stats.Summary // seconds
	SuccessRatio stats.Summary
	Concurrency  stats.Summary // mean busy disks given >= 1 busy
	StallTime    stats.Summary // seconds

	Results []Result
}

// String summarizes the aggregate.
func (a Aggregate) String() string {
	return fmt.Sprintf("%s k=%d D=%d N=%d C=%d: total=%.2fs ±%.2f success=%.3f (%d trials)",
		a.Config.StrategyName(), a.Config.K, a.Config.D, a.Config.N, a.Config.CacheBlocks,
		a.TotalTime.Mean(), a.TotalTime.CI95(), a.SuccessRatio.Mean(), a.Trials)
}
