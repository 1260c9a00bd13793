// Package faults is the deterministic fault-injection layer of the
// simulator: it describes how individual disks misbehave — fail-slow
// service-time inflation, transient read errors that force re-reads,
// and whole-disk outage windows — and supplies the per-disk runtime
// injectors the disk model consults at dispatch time.
//
// The paper's model assumes D identical, always-healthy disks; the
// interaction between prefetching strategy and disk parallelism is most
// interesting exactly when that assumption breaks, because a single
// degraded disk serializes every inter-run prefetch batch that touches
// it. A Spec is part of core.Config: it validates like the rest of the
// configuration, has a canonical JSON form (so result caching stays
// sound), and all randomness derives from a dedicated split of the
// simulation seed, so a faulty run is exactly as reproducible as a
// healthy one.
package faults

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultMaxRetries is the re-read cap applied when DiskSpec.MaxRetries
// is zero: a request that still errors after this many re-reads makes
// the disk unreadable and aborts the merge with ErrUnreadable.
const DefaultMaxRetries = 3

// MaxSlowdown caps DiskSpec.Slowdown. At 1e6 a 1 ms transfer already
// takes over 16 minutes; far larger factors overflow the simulated
// clock to +Inf.
const MaxSlowdown = 1e6

// ErrUnreadable reports that a disk exhausted its re-read budget on a
// request: the merge cannot complete because one of its runs is no
// longer readable. Match with errors.Is; the concrete error is an
// *UnreadableError carrying the disk, block and attempt count.
var ErrUnreadable = errors.New("faults: disk unreadable after retries")

// UnreadableError is the typed failure of an exhausted re-read budget.
type UnreadableError struct {
	Disk     int // disk index
	Start    int // first block of the failed request
	Attempts int // reads attempted (initial + retries)
}

// Error implements error.
func (e *UnreadableError) Error() string {
	return fmt.Sprintf("faults: disk %d unreadable at block %d after %d attempts", e.Disk, e.Start, e.Attempts)
}

// Is reports ErrUnreadable as this error's sentinel.
func (e *UnreadableError) Is(target error) bool { return target == ErrUnreadable }

// Window is one whole-disk outage: the disk dispatches no requests in
// [StartMs, EndMs) of the simulated clock; queued work waits and is
// served after recovery.
type Window struct {
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// DiskSpec describes the faults of one input disk. The zero value of
// every fault field means "healthy" for that dimension, so a spec can
// inject exactly one failure mode at a time. It is also the wire form
// of one entry of a /v1/simulate request's faults.
type DiskSpec struct {
	// Disk is the input-disk index the faults apply to.
	Disk int `json:"disk"`

	// Slowdown multiplies the disk's service time (seek, rotation and
	// transfer alike) — the fail-slow model. 0 means no slowdown;
	// otherwise it must be in [1, MaxSlowdown].
	Slowdown float64 `json:"slowdown,omitempty"`

	// SlowdownAtMs is the simulated instant the slowdown phases in;
	// before it the disk runs at full speed. 0 means degraded from the
	// start.
	SlowdownAtMs float64 `json:"slowdown_at_ms,omitempty"`

	// ReadErrorProb is the per-request probability of a transient read
	// error. Each error costs one re-read — a fresh rotational latency
	// plus the full transfer again — before any block of the request is
	// delivered.
	ReadErrorProb float64 `json:"read_error_prob,omitempty"`

	// MaxRetries caps re-reads per request (0 = DefaultMaxRetries). A
	// request that errors on every attempt aborts the merge with
	// ErrUnreadable.
	MaxRetries int `json:"max_retries,omitempty"`

	// Outages are the disk's downtime windows, in ascending,
	// non-overlapping order.
	Outages []Window `json:"outages,omitempty"`
}

// maxRetries resolves the re-read cap.
func (d DiskSpec) maxRetries() int {
	if d.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return d.MaxRetries
}

// Spec is the fault environment of one simulated merge: at most one
// entry per disk, in ascending disk order (Validate enforces both,
// which is what gives the spec a canonical encoding).
type Spec struct {
	Disks []DiskSpec
}

// Validate reports the first error in the spec against a merge using d
// input disks, or nil. The error text names the offending value; the
// HTTP 400 path serves it verbatim.
func (s *Spec) Validate(d int) error {
	prev := -1
	for i, ds := range s.Disks {
		if ds.Disk < 0 || ds.Disk >= d {
			return fmt.Errorf("faults: spec %d targets disk %d, want [0, D=%d)", i, ds.Disk, d)
		}
		if ds.Disk <= prev {
			return fmt.Errorf("faults: spec %d: disk %d out of order (entries must be ascending, one per disk)", i, ds.Disk)
		}
		prev = ds.Disk
		if ds.Slowdown != 0 && ds.Slowdown < 1 {
			return fmt.Errorf("faults: disk %d: slowdown %v < 1 (a fail-slow disk cannot be faster)", ds.Disk, ds.Slowdown)
		}
		if math.IsNaN(ds.Slowdown) || ds.Slowdown > MaxSlowdown {
			return fmt.Errorf("faults: disk %d: slowdown %v not in [1, %g]", ds.Disk, ds.Slowdown, MaxSlowdown)
		}
		if ds.SlowdownAtMs < 0 {
			return fmt.Errorf("faults: disk %d: slowdown_at_ms %v is negative", ds.Disk, ds.SlowdownAtMs)
		}
		if !finite(ds.SlowdownAtMs) {
			return fmt.Errorf("faults: disk %d: slowdown_at_ms %v is not finite", ds.Disk, ds.SlowdownAtMs)
		}
		// Written so that NaN, which fails every comparison, is out of range.
		if !(ds.ReadErrorProb >= 0 && ds.ReadErrorProb <= 1) {
			return fmt.Errorf("faults: disk %d: read error probability %v not in [0, 1]", ds.Disk, ds.ReadErrorProb)
		}
		if ds.MaxRetries < 0 {
			return fmt.Errorf("faults: disk %d: max retries %d is negative", ds.Disk, ds.MaxRetries)
		}
		prevEnd := 0.0
		for j, w := range ds.Outages {
			if w.StartMs < 0 {
				return fmt.Errorf("faults: disk %d: outage %d starts at %v ms", ds.Disk, j, w.StartMs)
			}
			if w.EndMs <= w.StartMs {
				return fmt.Errorf("faults: disk %d: outage %d ends at %v ms, not after its start %v ms", ds.Disk, j, w.EndMs, w.StartMs)
			}
			if j > 0 && w.StartMs < prevEnd {
				return fmt.Errorf("faults: disk %d: outage windows overlap at %v ms (windows must be ascending and disjoint)", ds.Disk, w.StartMs)
			}
			if !finite(w.StartMs) || !finite(w.EndMs) {
				return fmt.Errorf("faults: disk %d: outage %d [%v, %v) ms is not finite", ds.Disk, j, w.StartMs, w.EndMs)
			}
			prevEnd = w.EndMs
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Injector is the runtime form of a Spec: one DiskInjector per faulted
// disk, each with its own split of the fault RNG stream so error draws
// on one disk never perturb another's.
type Injector struct {
	disks []*DiskInjector // indexed by disk; nil = healthy
}

// NewInjector materializes a validated spec for a merge with d input
// disks. r must be a stream dedicated to fault draws.
func NewInjector(s Spec, d int, r *rng.Stream) *Injector {
	in := &Injector{disks: make([]*DiskInjector, d)}
	for _, ds := range s.Disks {
		in.disks[ds.Disk] = &DiskInjector{
			spec: ds,
			r:    r.SplitIndexed("fault-disk", ds.Disk),
		}
	}
	return in
}

// Disk returns the injector for disk i, or nil when i is healthy.
func (in *Injector) Disk(i int) *DiskInjector {
	if in == nil || i >= len(in.disks) {
		return nil
	}
	return in.disks[i]
}

// DiskInjector is the per-disk fault state the disk model consults on
// every dispatch. Like the disk itself it is driven from kernel events
// only, so it needs no locking.
type DiskInjector struct {
	spec DiskSpec
	r    *rng.Stream

	tr         *trace.Recorder // nil when untraced
	trTrack    int
	slowMarked bool
}

// SetTrace attaches a trace recorder (nil-safe) so fault transitions
// land as marks on the owning disk's track.
func (di *DiskInjector) SetTrace(tr *trace.Recorder, track int) {
	di.tr = tr
	di.trTrack = track
}

// Slowdown returns the service-time multiplier in effect at the
// simulated instant at (1 = full speed).
func (di *DiskInjector) Slowdown(at sim.Time) float64 {
	if di.spec.Slowdown == 0 || float64(at) < di.spec.SlowdownAtMs {
		return 1
	}
	if !di.slowMarked {
		di.slowMarked = true
		di.tr.Mark(di.trTrack, "fault-slowdown-on", at)
	}
	return di.spec.Slowdown
}

// OutageWait returns how long a dispatch at the simulated instant at
// must wait for the disk to recover (0 = the disk is up).
func (di *DiskInjector) OutageWait(at sim.Time) sim.Time {
	t := float64(at)
	for _, w := range di.spec.Outages {
		if t < w.StartMs {
			return 0 // windows are ascending; nothing earlier can cover at
		}
		if t < w.EndMs {
			return sim.Time(w.EndMs - t)
		}
	}
	return 0
}

// DrawError reports whether one read attempt suffers a transient error.
// Draws consume the disk's dedicated stream in dispatch order, so a
// fault run is deterministic under any worker count.
func (di *DiskInjector) DrawError() bool {
	if di.spec.ReadErrorProb == 0 {
		return false
	}
	if di.spec.ReadErrorProb >= 1 {
		return true
	}
	return di.r.Float64() < di.spec.ReadErrorProb
}

// MaxRetries returns the re-read cap for this disk.
func (di *DiskInjector) MaxRetries() int { return di.spec.maxRetries() }
