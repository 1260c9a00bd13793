package explain

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// index holds one trace's joins, built once per report so that naming a
// stall's blocking fetch and intersecting the stall with that disk's
// phase spans are binary searches instead of scans over every span.
// Every answer is the one the linear joins would give, tie-breaks
// included; the differential test in this package holds it to that.
type index struct {
	fetches trace.Events[trace.PrefetchSpan]

	// byRun lists fetch positions grouped by run, each group in issue
	// order (equal issue instants keep record order), and issued[i] is
	// byRun[i]'s issue instant. reach[i] is the latest completion among
	// the group's entries up to and including i, and reacher[i] the
	// first-recorded of them that completes then.
	byRun   []int32
	issued  []sim.Time
	reach   []sim.Time
	reacher []int32
	// runs lists the distinct runs in ascending order; run runs[g]'s
	// group is byRun[groups[g]:groups[g+1]].
	runs   []int
	groups []int32

	// byDone lists every fetch position in completion order (equal
	// instants keep record order), and done[i] is byDone[i]'s completion
	// instant.
	byDone []int32
	done   []sim.Time

	// spans are the recorder's disk spans; tracks indexes them per
	// track, and trackIDs lists the tracks in ascending order.
	spans    trace.Events[trace.DiskSpan]
	tracks   map[int]*trackSpans
	trackIDs []int
}

// trackSpans indexes one disk track's phase spans, those that start
// before the makespan.
type trackSpans struct {
	// phases totals the spans' lengths clamped to the makespan, added
	// in record order.
	phases PhaseBreakdown
	// pos lists the spans as positions in index.spans, in start order
	// (equal starts in record order). The disk model records each
	// track's spans in start order, so inRecordOrder is normally true
	// and pos ascends.
	pos           []int32
	inRecordOrder bool
	// reach[i] is the latest end among pos[:i+1]. The spans tile the
	// track, so it barely differs from the i-th span's own end.
	reach []sim.Time
}

// newIndex indexes a trace's prefetch spans, and its disk spans that
// start before the makespan, grouped by track.
func newIndex(r *trace.Recorder, makespan sim.Time) *index {
	fetches := r.PrefetchSpans()
	x := &index{fetches: fetches, tracks: map[int]*trackSpans{}}
	n := fetches.Len()
	// Group by run with a counting sort, which keeps record order
	// inside each group, then put each group in issue order; a stable
	// sort keeps equal issue instants in record order. slot counts each
	// run's fetches, then points at the run's next free position.
	slot := map[int]int32{}
	for i := 0; i < n; i++ {
		run := fetches.At(i).Run
		if slot[run] == 0 {
			x.runs = append(x.runs, run)
		}
		slot[run]++
	}
	sort.Ints(x.runs)
	x.groups = make([]int32, len(x.runs)+1)
	for g, run := range x.runs {
		x.groups[g+1] = x.groups[g] + slot[run]
		slot[run] = x.groups[g]
	}
	x.byRun = make([]int32, n)
	for i := 0; i < n; i++ {
		run := fetches.At(i).Run
		x.byRun[slot[run]] = int32(i)
		slot[run]++
	}
	issuedAt := func(p trace.PrefetchSpan) sim.Time { return p.Issued }
	x.issued = keys(fetches, x.byRun, issuedAt)
	x.reach = make([]sim.Time, n)
	x.reacher = make([]int32, n)
	for g := range x.runs {
		lo, hi := x.groups[g], x.groups[g+1]
		group := x.byRun[lo:hi]
		if !slices.IsSorted(x.issued[lo:hi]) {
			slices.SortStableFunc(group, func(a, b int32) int {
				return cmp.Compare(fetches.At(int(a)).Issued, fetches.At(int(b)).Issued)
			})
			copy(x.issued[lo:hi], keys(fetches, group, issuedAt))
		}
		for i, pos := range group {
			at := int(lo) + i
			done := fetches.At(int(pos)).Done
			if i == 0 {
				x.reach[at], x.reacher[at] = done, pos
				continue
			}
			x.reach[at], x.reacher[at] = x.reach[at-1], x.reacher[at-1]
			//detlint:allow floatcmp tie on recorded completion instants: fetches done at the same kernel timestamp carry identical bits, and the first recorded must win as in a scan
			if done > x.reach[at] || done == x.reach[at] && pos < x.reacher[at] {
				x.reach[at], x.reacher[at] = done, pos
			}
		}
	}

	x.byDone = make([]int32, n)
	for i := range x.byDone {
		x.byDone[i] = int32(i)
	}
	doneAt := func(p trace.PrefetchSpan) sim.Time { return p.Done }
	x.done = keys(fetches, x.byDone, doneAt)
	if !slices.IsSorted(x.done) {
		slices.SortStableFunc(x.byDone, func(a, b int32) int {
			return cmp.Compare(fetches.At(int(a)).Done, fetches.At(int(b)).Done)
		})
		x.done = keys(fetches, x.byDone, doneAt)
	}

	x.spans = r.DiskSpans()
	for i := 0; i < x.spans.Len(); i++ {
		s := x.spans.At(i)
		start, end, ok := clamp(s.Start, s.End, makespan)
		if !ok {
			continue
		}
		t := x.tracks[s.Track]
		if t == nil {
			t = &trackSpans{}
			x.tracks[s.Track] = t
			x.trackIDs = append(x.trackIDs, s.Track)
		}
		t.phases.add(s.Phase, end-start)
		t.pos = append(t.pos, int32(i))
	}
	sort.Ints(x.trackIDs)
	for _, id := range x.trackIDs {
		x.tracks[id].seal(x.spans)
	}
	return x
}

// seal puts the track's spans in start order and computes the running
// maximum of their ends.
func (t *trackSpans) seal(spans trace.Events[trace.DiskSpan]) {
	byStart := func(a, b int32) int { return cmp.Compare(spans.At(int(a)).Start, spans.At(int(b)).Start) }
	t.inRecordOrder = slices.IsSortedFunc(t.pos, byStart)
	if !t.inRecordOrder {
		slices.SortStableFunc(t.pos, byStart)
	}
	t.reach = make([]sim.Time, len(t.pos))
	for i, p := range t.pos {
		t.reach[i] = spans.At(int(p)).End
		if i > 0 && t.reach[i-1] > t.reach[i] {
			t.reach[i] = t.reach[i-1]
		}
	}
}

// keys returns key(fetches.At(p)) for each position p in order.
func keys(fetches trace.Events[trace.PrefetchSpan], order []int32, key func(trace.PrefetchSpan) sim.Time) []sim.Time {
	out := make([]sim.Time, len(order))
	for i, p := range order {
		out[i] = key(fetches.At(int(p)))
	}
	return out
}

// blockingFetch names the prefetch span a stall was waiting on, as a
// position in the recorder's prefetch spans, by a cascade of
// increasingly loose joins:
//
//  1. A same-run fetch in flight at the stall's end — the stall ended
//     because a block of run s.Run arrived, so the fetch that spans the
//     wake-up instant is the blocker. Earliest issued wins, then first
//     recorded.
//  2. Any-run fetch completing exactly at the stall's end: under
//     Synchronized batches the CPU waits for the whole batch, so the
//     wake-up fetch can serve a different run. Earliest issued wins,
//     then first recorded.
//  3. A same-run fetch merely overlapping the stall: covers arrival
//     races where the waking deposit was recorded just before the
//     stall span closed. Latest done wins, then first recorded.
//
// Returns -1 when nothing matches.
//
// On an untruncated engine trace step 1 or 2 always matches. The engine
// (core's arrivalCheck) ends a stall at the instant a block of its run
// is deposited, and every block arrives through a fetch recorded at its
// last block, so that fetch is in flight at the stall's end (step 1).
// A synchronized batch ends its stall at the batch's last completion,
// a fetch completing exactly then (step 2). Step 3 and the no-match
// case serve traces that lack the waking fetch: one cut short by its
// event cap, or a hand-edited CSV given to traceq -trace.
func (x *index) blockingFetch(s trace.CPUSpan) int {
	f := x.fetches
	var lo, hi int32
	if g := sort.SearchInts(x.runs, s.Run); g < len(x.runs) && x.runs[g] == s.Run {
		lo, hi = x.groups[g], x.groups[g+1]
	}
	run, reach := x.byRun[lo:hi], x.reach[lo:hi]

	// Step 1: among the run's fetches issued by the stall's end, the
	// first in issue order whose running reach attains the end is in
	// flight then, and every fetch before it finished too early.
	issued := sort.Search(len(run), func(i int) bool { return x.issued[int(lo)+i] > s.End })
	if i := sort.Search(issued, func(i int) bool { return reach[i] >= s.End }); i < issued {
		return int(run[i])
	}

	// Step 2: the fetches completing exactly at the stall's end are
	// adjacent in completion order, in record order.
	best := -1
	first := sort.Search(len(x.done), func(i int) bool { return x.done[i] >= s.End })
	for i := first; i < len(x.done); i++ {
		//detlint:allow floatcmp synchronized batches wake the CPU at the exact recorded completion instant; both sides are the same kernel timestamp, so equality is bit-identity, not arithmetic
		if x.done[i] != s.End {
			break
		}
		pos := int(x.byDone[i])
		if best < 0 || f.At(pos).Issued < f.At(best).Issued {
			best = pos
		}
	}
	if best >= 0 {
		return best
	}

	// Step 3: of the run's fetches issued before the stall's end, the
	// latest-done one, if it completes after the stall's start.
	before := sort.Search(len(run), func(i int) bool { return x.issued[int(lo)+i] >= s.End })
	if before > 0 && reach[before-1] > s.Start {
		return int(x.reacher[int(lo)+before-1])
	}
	return -1
}

// decompose intersects the interval [start, end), which lies inside
// the makespan, with a track's phase spans, returning per-phase overlap
// and the uncovered remainder. The overlaps are summed in record order,
// as a scan over every span would, and clamping a span's end to the
// makespan cannot change its overlap, so the spans are read as
// recorded.
func (x *index) decompose(track int, start, end sim.Time) (PhaseBreakdown, sim.Time) {
	var b PhaseBreakdown
	if t := x.tracks[track]; t != nil {
		// Spans before the first whose running reach passes start end
		// by start; spans from the first that starts at or after end on
		// begin too late. Spans in record order are in start order, so
		// the walk adds each as it reads it; out-of-order spans are cut
		// at that point and put back in record order first.
		spans := x.spans
		i := sort.Search(len(t.reach), func(i int) bool { return t.reach[i] > start })
		hits := t.pos[i:]
		if !t.inRecordOrder {
			j := i
			for j < len(t.pos) && spans.At(int(t.pos[j])).Start < end {
				j++
			}
			hits = slices.Clone(t.pos[i:j])
			slices.Sort(hits)
		}
		for _, p := range hits {
			sp := spans.At(int(p))
			if sp.Start >= end {
				break
			}
			lo, hi := sp.Start, sp.End
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			if hi > lo {
				b.add(sp.Phase, hi-lo)
			}
		}
	}
	queued := (end - start) - b.Busy()
	if queued < 0 {
		queued = 0
	}
	return b, queued
}
