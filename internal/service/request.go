package service

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/sim"
)

// SimulateRequest is the wire form of one simulation point. Zero-value
// fields take the paper's defaults (k=25, D=5, N=1, 1000 blocks/run,
// natural cache, seed 1), so `{}` is a valid request for the paper's
// baseline. Enum fields are named strings, and unknown names are
// rejected with a 400. mergesim and traceq bind their config flags onto
// these fields, so a flag value and a wire value are one name.
type SimulateRequest struct {
	K            int   `json:"k,omitempty"`
	D            int   `json:"d,omitempty"`
	N            int   `json:"n,omitempty"`
	BlocksPerRun int   `json:"blocks_per_run,omitempty"`
	RunLengths   []int `json:"run_lengths,omitempty"`

	InterRun     bool `json:"inter_run,omitempty"`
	Synchronized bool `json:"synchronized,omitempty"`
	AdaptiveN    bool `json:"adaptive_n,omitempty"`

	// CacheBlocks: 0 = the natural size (core.Config.DefaultCache),
	// -1 = unlimited, otherwise the capacity in blocks.
	CacheBlocks int `json:"cache_blocks,omitempty"`

	MergeMs float64 `json:"merge_ms,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`   // 0 = 1
	Trials  int     `json:"trials,omitempty"` // 0 = 1; capped by Options.MaxTrials

	Admission string `json:"admission,omitempty"`  // all-or-demand | greedy
	Schedule  string `json:"schedule,omitempty"`   // fcfs | sstf | scan
	Placement string `json:"placement,omitempty"`  // round-robin | clustered | striped
	RunPolicy string `json:"run_policy,omitempty"` // random | least-buffered | round-robin | oracle
	Disk      string `json:"disk,omitempty"`       // paper | modern

	Write *WriteRequest `json:"write,omitempty"`

	// Faults injects per-disk failure modes (see faults.Spec). Entries
	// must be in ascending disk order, one per disk; invalid specs are a
	// 400 with the validation text.
	Faults []faults.DiskSpec `json:"faults,omitempty"`

	// Trace embeds a Chrome trace-event timeline of the run in the
	// response. Traced requests bypass the result cache and singleflight
	// (a cached or joined result has no trace to give), run their engine
	// detached under the same admission gate, and require trials = 1.
	// The plain result is still cached for later untraced requests.
	Trace bool `json:"trace,omitempty"`
}

// WriteRequest enables output-traffic modelling for a point.
type WriteRequest struct {
	Shared       bool `json:"shared,omitempty"`
	Disks        int  `json:"disks,omitempty"`
	BatchBlocks  int  `json:"batch_blocks,omitempty"`
	BufferBlocks int  `json:"buffer_blocks,omitempty"`
}

// SweepRequest fans a batch of points out through the shared engine
// pool in one admitted run. Trials applies to every point (0 = 1);
// per-point trials are rejected so a sweep has one unambiguous shape.
type SweepRequest struct {
	Points []SimulateRequest `json:"points"`
	Trials int               `json:"trials,omitempty"`
}

// requestError marks client mistakes (HTTP 400) as opposed to server
// failures.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// Config materializes the request into a validated core.Config. It is
// the one mapping from named settings to a core.Config: simd's
// endpoints, optimize's template, and mergesim's and traceq's flags all
// go through it. The boundary is stricter than core.Config.Validate in
// one place: k < 2 is rejected here, because a single-run "merge" is
// only meaningful when replaying a real sort's final pass, never as a
// request (core keeps accepting K = 1 for that replay path).
func (r SimulateRequest) Config() (core.Config, error) {
	cfg := core.Default()
	if r.K != 0 {
		if r.K < 2 {
			return core.Config{}, badRequestf("k = %d (a merge needs at least 2 runs)", r.K)
		}
		cfg.K = r.K
	}
	if r.D != 0 {
		cfg.D = r.D
	}
	if r.N != 0 {
		cfg.N = r.N
	}
	if r.BlocksPerRun != 0 {
		cfg.BlocksPerRun = r.BlocksPerRun
	}
	cfg.RunLengths = r.RunLengths
	cfg.InterRun = r.InterRun
	cfg.Synchronized = r.Synchronized
	cfg.AdaptiveN = r.AdaptiveN
	cfg.MergeTimePerBlock = sim.Ms(r.MergeMs)
	if r.Seed != 0 {
		cfg.Seed = r.Seed
	}

	switch r.Disk {
	case "", "paper":
		cfg.Disk = disk.PaperParams()
	case "modern":
		cfg.Disk = disk.ModernParams()
	default:
		return core.Config{}, badRequestf("unknown disk %q (want paper or modern)", r.Disk)
	}
	switch r.Schedule {
	case "", "fcfs":
		cfg.Disk.Discipline = disk.FCFS
	case "sstf":
		cfg.Disk.Discipline = disk.SSTF
	case "scan":
		cfg.Disk.Discipline = disk.SCAN
	default:
		return core.Config{}, badRequestf("unknown schedule %q (want fcfs, sstf or scan)", r.Schedule)
	}
	placement, err := layout.ParsePlacement(r.Placement)
	if err != nil {
		return core.Config{}, badRequestf("%v", err)
	}
	cfg.Placement = placement
	switch r.Admission {
	case "", "all-or-demand":
		cfg.Admission = cache.AllOrDemand
	case "greedy":
		cfg.Admission = cache.Greedy
	default:
		return core.Config{}, badRequestf("unknown admission %q (want all-or-demand or greedy)", r.Admission)
	}
	switch r.RunPolicy {
	case "", "random":
		cfg.RunPolicy = core.RandomRun
	case "least-buffered":
		cfg.RunPolicy = core.LeastBufferedRun
	case "round-robin":
		cfg.RunPolicy = core.RoundRobinRun
	case "oracle":
		cfg.RunPolicy = core.OracleRun
	default:
		return core.Config{}, badRequestf("unknown run_policy %q (want random, least-buffered, round-robin or oracle)", r.RunPolicy)
	}

	switch r.CacheBlocks {
	case 0:
		cfg.CacheBlocks = cfg.DefaultCache()
	case -1:
		cfg.CacheBlocks = cache.Unlimited
	default:
		if r.CacheBlocks < -1 {
			return core.Config{}, badRequestf("cache_blocks = %d (want -1, 0 or a positive size)", r.CacheBlocks)
		}
		cfg.CacheBlocks = r.CacheBlocks
	}

	if w := r.Write; w != nil {
		cfg.Write = core.WriteConfig{
			Enabled:      true,
			Shared:       w.Shared,
			Disks:        w.Disks,
			BatchBlocks:  w.BatchBlocks,
			BufferBlocks: w.BufferBlocks,
		}
	}

	if len(r.Faults) > 0 {
		cfg.Faults = &faults.Spec{Disks: slices.Clone(r.Faults)}
	}

	if err := cfg.Validate(); err != nil {
		return core.Config{}, &requestError{msg: err.Error()}
	}
	return cfg, nil
}
