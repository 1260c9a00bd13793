// Package explain turns a recorded trace into an attribution report:
// where did the makespan go, per disk and per mechanical phase; which
// disk and which fetch each CPU stall was actually waiting on; how deep
// the disk queues and the cache ran, time-weighted; and which stall
// chains dominated the critical path.
//
// The analysis is a pure function of the recorder's contents — no
// clocks, no randomness, no maps iterated without sorting — so a report
// is byte-identical across runs and worker counts whenever the trace
// is, which internal/core guarantees for a fixed (config, seed).
//
// Conservation is the load-bearing property: per disk,
// busy + idle = makespan; on the CPU,
// compute + stall + initial load + idle = makespan; and the attributed
// stall total must equal core's Result.StallTime (both sides sum the
// same recorded intervals). Check enforces all of it within Epsilon,
// and the property tests in this package replay the engine config
// matrix (coretest.Matrix) through it.
package explain

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Epsilon is the absolute slack allowed on conservation identities, in
// milliseconds. The sums involved repeat the engine's own additions in
// the same order, so observed residuals are zero; the slack covers
// re-associated float addition if an exporter round-trip reorders
// spans.
const Epsilon sim.Time = 1e-6

// Options parameterizes Build.
type Options struct {
	// Makespan is the run's finish instant (Result.TotalTime). Zero
	// means infer it as the last recorded span end, which is correct
	// for completed merges but undershoots runs cut by MaxSimTime.
	Makespan sim.Time
	// TopChains bounds the critical-path extraction (default 5).
	TopChains int
}

// PhaseBreakdown is busy time split by mechanical phase, in ms.
type PhaseBreakdown struct {
	Seek     sim.Time `json:"seek_ms"`
	Rotation sim.Time `json:"rotation_ms"`
	Retry    sim.Time `json:"retry_ms"`
	Transfer sim.Time `json:"transfer_ms"`
	Outage   sim.Time `json:"outage_ms"`
}

// add accumulates d ms into the bucket for phase p.
func (b *PhaseBreakdown) add(p trace.Phase, d sim.Time) {
	switch p {
	case trace.PhaseSeek:
		b.Seek += d
	case trace.PhaseRotation:
		b.Rotation += d
	case trace.PhaseRetry:
		b.Retry += d
	case trace.PhaseTransfer:
		b.Transfer += d
	case trace.PhaseOutage:
		b.Outage += d
	}
}

// Busy returns the breakdown's total.
func (b PhaseBreakdown) Busy() sim.Time {
	return b.Seek + b.Rotation + b.Retry + b.Transfer + b.Outage
}

// Distribution summarizes a step function (queue depth, cache
// occupancy) time-weighted over the whole makespan.
type Distribution struct {
	// Mean is the time-weighted average level (the integral of the step
	// function divided by the makespan).
	Mean float64 `json:"mean"`
	// Max is the highest sampled level.
	Max int `json:"max"`
	// P95 is the smallest level at or below which the step function
	// spends at least 95% of the makespan.
	P95 int `json:"p95"`
}

// DiskReport is one disk track's share of the makespan.
type DiskReport struct {
	Name   string         `json:"name"`
	Phases PhaseBreakdown `json:"phases"`
	// Busy = Phases.Busy(); Idle = makespan − Busy. Busy + Idle is the
	// per-disk conservation identity.
	Busy        sim.Time `json:"busy_ms"`
	Idle        sim.Time `json:"idle_ms"`
	Utilization float64  `json:"utilization"`
	// Queue summarizes the track's queue-depth step function; all-zero
	// when the trace carries no queue samples for the track.
	Queue Distribution `json:"queue"`
	// Prefetches / PrefetchBlocks count fetch spans served by this
	// track (zero for write disks: output requests are not prefetches).
	Prefetches     int `json:"prefetches"`
	PrefetchBlocks int `json:"prefetch_blocks"`

	track int
}

// CPUReport is the merge CPU's share of the makespan.
type CPUReport struct {
	Compute sim.Time `json:"compute_ms"`
	// Stall is demand-stall time (spans attributed to a run), the trace
	// twin of Result.StallTime.
	Stall sim.Time `json:"stall_ms"`
	// InitialLoad is the up-front wait for the first batch of every
	// run, which core excludes from StallTime.
	InitialLoad sim.Time `json:"initial_load_ms"`
	// Idle is the remainder: output-drain waits (not traced as spans)
	// and scheduling gaps.
	Idle        sim.Time `json:"idle_ms"`
	Utilization float64  `json:"utilization"`
}

// DiskStall is stall time attributed to one blocking disk.
type DiskStall struct {
	Name  string   `json:"name"`
	Stall sim.Time `json:"stall_ms"`
	Count int      `json:"count"`

	track int
}

// StallReport decomposes total demand-stall time by blocking disk and
// by what that disk was mechanically doing during the stall.
type StallReport struct {
	Total  sim.Time    `json:"total_ms"`
	ByDisk []DiskStall `json:"by_disk"`
	// ByPhase intersects each attributed stall interval with the
	// blocking disk's phase spans: the stall time the disk spent
	// seeking, rotating, transferring, ... for anyone's request.
	ByPhase PhaseBreakdown `json:"by_phase"`
	// Queued is the attributed remainder: the blocking disk was idle or
	// parked while the CPU waited (the fetch sat in queue).
	Queued sim.Time `json:"queued_ms"`
	// Unattributed is stall time no prefetch span explains; nonzero
	// values indicate a truncated trace.
	Unattributed sim.Time `json:"unattributed_ms"`
}

// Chain is one critical-path entry: a CPU stall, the fetch that ended
// it, and what the blocking disk spent the wait on.
type Chain struct {
	Run      int      `json:"run"`
	Start    sim.Time `json:"start_ms"`
	End      sim.Time `json:"end_ms"`
	Duration sim.Time `json:"duration_ms"`
	// Disk names the blocking track ("" when unattributed); Issued is
	// when its fetch entered the system — Issued < Start means the
	// fetch was already in flight when the CPU hit the wall.
	Disk   string         `json:"disk,omitempty"`
	Issued sim.Time       `json:"issued_ms"`
	Phases PhaseBreakdown `json:"phases"`
	Queued sim.Time       `json:"queued_ms"`
}

// Report is the full attribution report. All durations are simulated
// milliseconds; JSON field names carry the unit.
type Report struct {
	Makespan sim.Time `json:"makespan_ms"`
	// Truncated propagates the recorder's event-cap flag: a truncated
	// trace yields an untrustworthy report (conservation will fail).
	Truncated bool         `json:"truncated"`
	CPU       CPUReport    `json:"cpu"`
	Disks     []DiskReport `json:"disks"`
	Stall     StallReport  `json:"stall"`
	Cache     Distribution `json:"cache"`
	Chains    []Chain      `json:"chains"`
}

// Build computes the attribution report for a recorded trace. It never
// mutates the recorder.
//
// Cost: the joins go through an index built once per report, so with S
// stalls, P prefetch spans and D disk spans Build takes
// O((S + P + D) log P) time instead of the O(S·(P + D)) of scanning
// every span per stall.
func Build(r *trace.Recorder, opts Options) *Report {
	makespan := opts.Makespan
	if makespan <= 0 {
		makespan = lastInstant(r)
	}
	topN := opts.TopChains
	if topN <= 0 {
		topN = 5
	}
	rep := &Report{Makespan: makespan, Truncated: r.Truncated()}
	x := newIndex(r, makespan)

	// Per-disk phase accounting. Spans recorded past the makespan (a
	// MaxSimTime cutoff leaves dispatched requests running) are clamped
	// to it so per-disk totals stay conservative.
	byTrack := map[int]*DiskReport{}
	trackOrder := []int{}
	diskOf := func(track int) *DiskReport {
		d, ok := byTrack[track]
		if !ok {
			d = &DiskReport{Name: r.TrackName(track), track: track}
			byTrack[track] = d
			trackOrder = append(trackOrder, track)
		}
		return d
	}
	for _, t := range x.trackIDs {
		diskOf(t).Phases = x.tracks[t].phases
	}
	prefetches := r.PrefetchSpans()
	for i := 0; i < prefetches.Len(); i++ {
		p := prefetches.At(i)
		d := diskOf(p.Track)
		d.Prefetches++
		d.PrefetchBlocks += p.Blocks
	}

	// Queue distributions per track.
	qs := r.QueueSamples()
	queues := map[int][]int32{}
	for i := 0; i < qs.Len(); i++ {
		track := qs.At(i).Track
		queues[track] = append(queues[track], int32(i))
	}
	for t, pos := range queues {
		diskOf(t).Queue = stepDistribution(len(pos), func(i int) (sim.Time, int) {
			q := qs.At(int(pos[i]))
			return q.At, q.Depth
		}, makespan)
	}

	sort.Ints(trackOrder)
	for _, t := range trackOrder {
		d := byTrack[t]
		d.Busy = d.Phases.Busy()
		d.Idle = makespan - d.Busy
		if makespan > 0 {
			d.Utilization = float64(d.Busy / makespan)
		}
		rep.Disks = append(rep.Disks, *d)
	}

	// CPU accounting. Initial-load stalls carry no run identity and are
	// reported separately: core excludes them from Result.StallTime.
	var stalls []trace.CPUSpan
	for spans, i := r.CPUSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		start, end, ok := clamp(s.Start, s.End, makespan)
		if !ok {
			continue
		}
		d := end - start
		switch {
		case s.Kind == trace.CPUCompute:
			rep.CPU.Compute += d
		case s.Run >= 0:
			rep.CPU.Stall += d
			stalls = append(stalls, trace.CPUSpan{Kind: s.Kind, Run: s.Run, Start: start, End: end})
		default:
			rep.CPU.InitialLoad += d
		}
	}
	rep.CPU.Idle = makespan - rep.CPU.Compute - rep.CPU.Stall - rep.CPU.InitialLoad
	if makespan > 0 {
		rep.CPU.Utilization = float64(rep.CPU.Compute / makespan)
	}

	// Stall attribution + critical chains.
	rep.Stall.Total = rep.CPU.Stall
	attrStall := map[int]*DiskStall{}
	for _, s := range stalls {
		c := Chain{Run: s.Run, Start: s.Start, End: s.End, Duration: s.End - s.Start}
		i := x.blockingFetch(s)
		if i < 0 {
			rep.Stall.Unattributed += c.Duration
			c.Issued = s.Start
			rep.Chains = keepTop(rep.Chains, c, topN)
			continue
		}
		p := prefetches.At(i)
		ds, ok := attrStall[p.Track]
		if !ok {
			ds = &DiskStall{Name: r.TrackName(p.Track), track: p.Track}
			attrStall[p.Track] = ds
		}
		ds.Stall += c.Duration
		ds.Count++
		c.Disk = ds.Name
		c.Issued = p.Issued
		c.Phases, c.Queued = x.decompose(p.Track, s.Start, s.End)
		rep.Stall.ByPhase.Seek += c.Phases.Seek
		rep.Stall.ByPhase.Rotation += c.Phases.Rotation
		rep.Stall.ByPhase.Retry += c.Phases.Retry
		rep.Stall.ByPhase.Transfer += c.Phases.Transfer
		rep.Stall.ByPhase.Outage += c.Phases.Outage
		rep.Stall.Queued += c.Queued
		rep.Chains = keepTop(rep.Chains, c, topN)
	}
	stallTracks := make([]int, 0, len(attrStall))
	for t := range attrStall {
		stallTracks = append(stallTracks, t)
	}
	sort.Ints(stallTracks)
	for _, t := range stallTracks {
		rep.Stall.ByDisk = append(rep.Stall.ByDisk, *attrStall[t])
	}

	// Cache occupancy distribution.
	cs := r.CacheSamples()
	rep.Cache = stepDistribution(cs.Len(), func(i int) (sim.Time, int) {
		c := cs.At(i)
		return c.At, c.Occupied
	}, makespan)
	return rep
}

// keepTop files c into top, the at most n longest chains so far in
// report order: longest first, then earliest start, then lowest run,
// then first seen. It keeps exactly the first n chains a stable sort of
// every chain would.
func keepTop(top []Chain, c Chain, n int) []Chain {
	i := len(top)
	for i > 0 && longer(c, top[i-1]) {
		i--
	}
	if i >= n {
		return top
	}
	if len(top) < n {
		top = append(top, Chain{})
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = c
	return top
}

// longer reports whether chain a strictly precedes b in report order.
func longer(a, b Chain) bool {
	//detlint:allow floatcmp sort tie-break on recorded span bits: identical values must compare equal so the order is deterministic, no tolerance wanted
	if a.Duration != b.Duration {
		return a.Duration > b.Duration
	}
	//detlint:allow floatcmp sort tie-break on recorded span bits: identical values must compare equal so the order is deterministic, no tolerance wanted
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Run < b.Run
}

// stepDistribution integrates a right-continuous step function given by
// n samples over [0, makespan]; sample(i) returns the i-th sample's
// instant and level. The level is 0 before the first sample and holds
// the last sample's value to the end. Samples are taken in time order,
// equal instants in sample order; the engine records them that way, so
// only out-of-order input pays for a sort.
func stepDistribution(n int, sample func(int) (sim.Time, int), makespan sim.Time) Distribution {
	if n == 0 || makespan <= 0 {
		return Distribution{}
	}
	if d, ok := integrateSteps(n, sample, makespan); ok {
		return d
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, _ := sample(order[a])
		tb, _ := sample(order[b])
		return ta < tb
	})
	d, _ := integrateSteps(n, func(i int) (sim.Time, int) { return sample(order[i]) }, makespan)
	return d
}

// integrateSteps is stepDistribution over samples in time order. It
// reads each sample once and stops, reporting false, at the first
// sample earlier than the one before it.
func integrateSteps(n int, sample func(int) (sim.Time, int), makespan sim.Time) (Distribution, bool) {
	timeAt := map[int]sim.Time{}
	var integral float64
	maxDepth := 0
	prevAt, prevDepth := sim.Time(0), 0
	account := func(until sim.Time, depth int) {
		if until > prevAt {
			dt := until - prevAt
			timeAt[depth] += dt
			integral += float64(depth) * float64(dt)
		}
	}
	var last sim.Time
	for i := 0; i < n; i++ {
		at, depth := sample(i)
		if i > 0 && at < last {
			return Distribution{}, false
		}
		last = at
		if at > makespan {
			at = makespan
		}
		account(at, prevDepth)
		prevAt, prevDepth = at, depth
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	account(makespan, prevDepth)

	depths := make([]int, 0, len(timeAt))
	for d := range timeAt {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	var cum sim.Time
	p95 := maxDepth
	for _, d := range depths {
		cum += timeAt[d]
		if float64(cum) >= 0.95*float64(makespan) {
			p95 = d
			break
		}
	}
	return Distribution{Mean: integral / float64(makespan), Max: maxDepth, P95: p95}, true
}

// clamp restricts [start, end) to [0, makespan), reporting false for
// intervals entirely outside it.
func clamp(start, end, makespan sim.Time) (sim.Time, sim.Time, bool) {
	if start >= makespan || end <= start {
		return 0, 0, false
	}
	if end > makespan {
		end = makespan
	}
	return start, end, true
}

// lastInstant scans every recorded event for the latest timestamp.
func lastInstant(r *trace.Recorder) sim.Time {
	var last sim.Time
	later := func(t sim.Time) {
		if t > last {
			last = t
		}
	}
	for v, i := r.DiskSpans(), 0; i < v.Len(); i++ {
		later(v.At(i).End)
	}
	for v, i := r.CPUSpans(), 0; i < v.Len(); i++ {
		later(v.At(i).End)
	}
	for v, i := r.PrefetchSpans(), 0; i < v.Len(); i++ {
		later(v.At(i).Done)
	}
	for v, i := r.CacheSamples(), 0; i < v.Len(); i++ {
		later(v.At(i).At)
	}
	for v, i := r.QueueSamples(), 0; i < v.Len(); i++ {
		later(v.At(i).At)
	}
	for v, i := r.Marks(), 0; i < v.Len(); i++ {
		later(v.At(i).At)
	}
	return last
}
