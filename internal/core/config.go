// Package core implements the paper's contribution: the merge phase of
// external mergesort reading k sorted runs from D independently
// operating disks through a RAM block cache, under the intra-run and
// inter-run prefetching strategies, in synchronized and unsynchronized
// variants, with an infinitely fast or finite-speed CPU.
//
// The engine reproduces the simulation model of the paper's §2.2: no
// record data is moved; block depletion follows a workload model (the
// Kwan–Baer uniform model by default); every block request is queued at
// its disk individually; prefetched blocks are buffered in the cache
// until consumed; and fetches are admitted against the cache according
// to the configured admission policy.
package core

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PrefetchRunPolicy selects which run an inter-run prefetch reads on
// each non-demand disk.
type PrefetchRunPolicy int

const (
	// RandomRun chooses uniformly among the disk's runs that still have
	// unfetched blocks — the paper's policy (its TR found fancier
	// heuristics not worth their bookkeeping).
	RandomRun PrefetchRunPolicy = iota
	// LeastBufferedRun chooses the run with the fewest cached plus
	// in-flight blocks (run-choice ablation).
	LeastBufferedRun
	// RoundRobinRun cycles deterministically through the disk's runs
	// (run-choice ablation).
	RoundRobinRun
	// OracleRun peeks into the workload's future depletions (only
	// possible for replayed traces implementing workload.Lookahead) and
	// prefetches the disk's run that will be depleted soonest. Note
	// that urgency-greedy lookahead is not offline-optimal: under a
	// tight cache, balancing buffers (LeastBufferedRun) can beat it —
	// the run-choice ablation measures exactly this. Falls back to
	// RandomRun when the workload cannot look ahead.
	OracleRun
)

// String implements fmt.Stringer.
func (p PrefetchRunPolicy) String() string {
	switch p {
	case RandomRun:
		return "random"
	case LeastBufferedRun:
		return "least-buffered"
	case RoundRobinRun:
		return "round-robin"
	case OracleRun:
		return "oracle"
	default:
		return fmt.Sprintf("PrefetchRunPolicy(%d)", int(p))
	}
}

// Config fully describes one simulated merge. The zero value is not
// runnable; start from Default and override.
type Config struct {
	K int // number of sorted runs
	D int // number of input disks
	// BlocksPerRun is the run length in blocks (uniform runs).
	//detlint:unit blocks
	BlocksPerRun int

	// RunLengths, when non-nil, gives each run its own block count
	// (replacement-selection runs are unequal); it overrides
	// BlocksPerRun and must have K entries. Used when replaying real
	// merge traces through the simulator.
	RunLengths []int

	// N is the intra-run prefetch depth: each fetch from a run reads N
	// contiguous blocks (N = 1 disables intra-run prefetching).
	N int

	// AdaptiveN, when set, treats N as an upper bound and adapts the
	// working depth per fetch with an AIMD controller on admission
	// outcomes: a rejected full batch halves the depth, a streak of
	// admitted ones raises it. This automates the paper's observation
	// that every cache size has its own optimal N.
	AdaptiveN bool

	// InterRun enables prefetching N blocks from one run on each
	// non-demand disk at every demand fetch ("All Disks One Run").
	InterRun bool

	// Synchronized makes the CPU wait for the entire fetch batch; when
	// false the CPU resumes as soon as the demand block is cached.
	Synchronized bool

	// CacheBlocks is the cache capacity C in blocks. Use
	// cache.Unlimited for the ample-cache experiments; DefaultCache
	// computes the paper's natural size.
	//detlint:unit blocks
	CacheBlocks int

	// MergeTimePerBlock is the CPU cost of merging one block; zero
	// models the paper's infinitely fast CPU. At most
	// MaxMergeTimePerBlock.
	MergeTimePerBlock sim.Time

	// MaxSimTime aborts the simulation once the virtual clock passes
	// this horizon (zero = unlimited). Run returns the partial result
	// with TimedOut set — a guard for sweeps that may hit pathological
	// configurations.
	MaxSimTime sim.Time

	Disk      disk.Params
	Placement layout.Placement
	Admission cache.AdmissionPolicy
	RunPolicy PrefetchRunPolicy

	// Faults, when non-nil, injects per-disk failure modes (fail-slow
	// multipliers, transient read errors with retry-by-reread, outage
	// windows) into the input disks. nil is the paper's always-healthy
	// model and costs nothing — the engine takes the exact same code
	// paths as before the fault layer existed. A run whose re-read
	// budget is exhausted fails with faults.ErrUnreadable.
	Faults *faults.Spec

	// Write models the merge's output traffic (disabled by default,
	// matching the paper's separate-write-disks assumption).
	Write WriteConfig

	// WorkloadFactory chooses the depletion model: when non-nil it
	// builds a fresh model for each replication, where trial is the
	// 0-based replication index (Run is trial 0); nil means the
	// Kwan–Baer uniform model seeded from Seed. A Model is stateful, so
	// every run gets its own. Replications may run on parallel
	// goroutines, so the factory must be safe for concurrent calls and
	// must derive any randomness from the trial index, never from shared
	// mutable state.
	WorkloadFactory func(trial int) workload.Model

	Seed uint64

	// Trace, if non-nil, records an execution timeline into the given
	// recorder: per-disk seek/rotation/retry/transfer spans, CPU
	// compute/stall intervals, prefetch issue→complete spans,
	// cache-occupancy samples and the merge's proc-start/proc-end marks,
	// all in simulated time (see internal/trace). Observation only — a
	// traced run produces the exact result of an untraced one, and the
	// field is excluded from the canonical encoding, so traced and
	// untraced configs share a Hash. It forces RunGrid serial, and a
	// recorder observes one run, so RunTrials/RunGrid refuse it with
	// trials > 1.
	Trace *trace.Recorder

	// OnRequest, if non-nil, observes every disk request at dispatch
	// (input and output disks alike). Like Trace, it forces RunTrials
	// and RunGrid to run serially.
	OnRequest func(disk.RequestTrace)
}

// MaxMergeTimePerBlock caps Config.MergeTimePerBlock. A thousand
// seconds per block is far past any CPU worth modelling, and larger
// values can overflow the simulated clock to +Inf.
const MaxMergeTimePerBlock = 1e6 * sim.Millisecond

// Default returns the paper's base configuration: k=25 runs of 1000
// blocks on D=5 disks, N=1, no inter-run prefetching, the calibrated
// RA-series disk, round-robin placement, the all-or-demand admission
// policy and an infinitely fast CPU. The cache defaults to DefaultCache.
func Default() Config {
	cfg := Config{
		K:            25,
		D:            5,
		BlocksPerRun: 1000,
		N:            1,
		Disk:         disk.PaperParams(),
		Placement:    layout.RoundRobin,
		Admission:    cache.AllOrDemand,
		RunPolicy:    RandomRun,
		Seed:         1,
	}
	cfg.CacheBlocks = cfg.DefaultCache()
	return cfg
}

// DefaultCache returns the cache size that makes every prefetch
// admissible: kN blocks for intra-run-only configurations (the paper
// shows kN is necessary and sufficient), plus DN headroom for one full
// inter-run batch when InterRun is set.
func (c Config) DefaultCache() int {
	size := c.K * c.N
	if c.InterRun {
		size += c.D * c.N
	}
	return size
}

// StrategyName returns the paper's name for the configured strategy.
func (c Config) StrategyName() string {
	var base string
	switch {
	case c.InterRun:
		base = "all-disks-one-run" // inter-run (+ intra-run when N > 1)
	case c.N > 1:
		base = "demand-run-only" // intra-run
	default:
		base = "no-prefetch"
	}
	if c.Synchronized {
		return base + "/sync"
	}
	return base + "/unsync"
}

// runLengths returns the per-run block counts, expanding the uniform
// case. Call only on validated configs.
func (c Config) runLengths() []int {
	if c.RunLengths != nil {
		return c.RunLengths
	}
	lengths := make([]int, c.K)
	for i := range lengths {
		lengths[i] = c.BlocksPerRun
	}
	return lengths
}

// TotalBlocks returns the number of blocks the merge will consume.
func (c Config) TotalBlocks() int64 {
	if c.RunLengths == nil {
		return int64(c.K) * int64(c.BlocksPerRun)
	}
	var total int64
	for _, n := range c.RunLengths {
		total += int64(n)
	}
	return total
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.K <= 0:
		return fmt.Errorf("core: K = %d", c.K)
	case c.D <= 0 || c.D > c.K:
		return fmt.Errorf("core: D = %d not in [1, K=%d]", c.D, c.K)
	case c.RunLengths == nil && c.BlocksPerRun <= 0:
		return fmt.Errorf("core: BlocksPerRun = %d", c.BlocksPerRun)
	case c.RunLengths != nil && len(c.RunLengths) != c.K:
		return fmt.Errorf("core: %d run lengths for K = %d", len(c.RunLengths), c.K)
	case c.N <= 0:
		return fmt.Errorf("core: N = %d", c.N)
	case c.CacheBlocks < c.K:
		return fmt.Errorf("core: cache %d blocks < K = %d (one block per run minimum)", c.CacheBlocks, c.K)
	case c.MergeTimePerBlock < 0:
		return fmt.Errorf("core: negative merge time %v", c.MergeTimePerBlock)
	case math.IsNaN(float64(c.MergeTimePerBlock)) || c.MergeTimePerBlock > MaxMergeTimePerBlock:
		return fmt.Errorf("core: merge time %v not in [0, %v] per block", c.MergeTimePerBlock, MaxMergeTimePerBlock)
	}
	longest := 0
	for r, n := range c.runLengths() {
		if n <= 0 {
			return fmt.Errorf("core: run %d has %d blocks", r, n)
		}
		if n > longest {
			longest = n
		}
	}
	if c.N > longest {
		return fmt.Errorf("core: N = %d exceeds longest run %d", c.N, longest)
	}
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.D); err != nil {
			return err
		}
	}
	lay, err := layout.NewLengths(c.Placement, c.runLengths(), c.D)
	if err != nil {
		return err
	}
	if need, have := lay.MaxBlocksOnDisk(), c.Disk.CapacityBlocks(); need > have {
		return fmt.Errorf("core: layout needs %d blocks on a disk, geometry holds %d", need, have)
	}
	return c.Write.validate(c)
}
