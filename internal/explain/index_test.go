package explain

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// linearBlockingFetch is the cascade as a scan over every prefetch
// span per stall, the reference the index must reproduce. It returns
// the winning span's record position (-1 for none) and the cascade
// step that named it (0 for none).
func linearBlockingFetch(prefetches trace.Events[trace.PrefetchSpan], s trace.CPUSpan) (int, int) {
	best := -1
	for i := 0; i < prefetches.Len(); i++ {
		p := prefetches.At(i)
		if p.Run != s.Run || p.Issued > s.End || p.Done < s.End {
			continue
		}
		if best < 0 || p.Issued < prefetches.At(best).Issued {
			best = i
		}
	}
	if best >= 0 {
		return best, 1
	}
	for i := 0; i < prefetches.Len(); i++ {
		p := prefetches.At(i)
		//detlint:allow floatcmp the reference join compares recorded kernel timestamps bit for bit, as the engine's synchronized wake-up does
		if p.Done == s.End {
			if best < 0 || p.Issued < prefetches.At(best).Issued {
				best = i
			}
		}
	}
	if best >= 0 {
		return best, 2
	}
	for i := 0; i < prefetches.Len(); i++ {
		p := prefetches.At(i)
		if p.Run != s.Run || p.Done <= s.Start || p.Issued >= s.End {
			continue
		}
		if best < 0 || p.Done > prefetches.At(best).Done {
			best = i
		}
	}
	if best >= 0 {
		return best, 3
	}
	return -1, 0
}

// linearDecompose intersects [start, end) with every span of a track,
// in record order: the reference for index.decompose.
func linearDecompose(start, end sim.Time, spans []trace.DiskSpan) (PhaseBreakdown, sim.Time) {
	var b PhaseBreakdown
	for _, sp := range spans {
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
	queued := (end - start) - b.Busy()
	if queued < 0 {
		queued = 0
	}
	return b, queued
}

// stepHits counts how often each cascade step named the blocker;
// index 0 counts stalls nothing explains.
type stepHits [4]int

// requireSameJoins checks, stall by stall, that the indexed joins pick
// the same prefetch span as the linear cascade and decompose the stall
// into bit-identical phases and queued time, and that Build's chains
// are the ones a stable sort of every stall gives.
func requireSameJoins(t *testing.T, rec *trace.Recorder, makespan sim.Time) stepHits {
	t.Helper()
	var hits stepHits
	x := newIndex(rec, makespan)
	prefetches := rec.PrefetchSpans()
	clamped := map[int][]trace.DiskSpan{}
	for spans, i := rec.DiskSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		if start, end, ok := clamp(s.Start, s.End, makespan); ok {
			clamped[s.Track] = append(clamped[s.Track], trace.DiskSpan{Track: s.Track, Phase: s.Phase, Start: start, End: end})
		}
	}
	var want []Chain
	for spans, i := rec.CPUSpans(), 0; i < spans.Len(); i++ {
		cs := spans.At(i)
		start, end, ok := clamp(cs.Start, cs.End, makespan)
		if !ok || cs.Kind == trace.CPUCompute || cs.Run < 0 {
			continue
		}
		s := trace.CPUSpan{Kind: cs.Kind, Run: cs.Run, Start: start, End: end}
		pos, step := linearBlockingFetch(prefetches, s)
		hits[step]++
		if got := x.blockingFetch(s); got != pos {
			t.Fatalf("stall %+v: index names fetch %d, linear cascade %d (step %d)", s, got, pos, step)
		}
		c := Chain{Run: s.Run, Start: s.Start, End: s.End, Duration: s.End - s.Start, Issued: s.Start}
		if pos >= 0 {
			p := prefetches.At(pos)
			wantB, wantQ := linearDecompose(s.Start, s.End, clamped[p.Track])
			gotB, gotQ := x.decompose(p.Track, s.Start, s.End)
			if !sameBreakdown(gotB, wantB) || !sameBits(gotQ, wantQ) {
				t.Fatalf("stall %+v on track %d: index gives %+v queued %v, linear %+v queued %v",
					s, p.Track, gotB, gotQ, wantB, wantQ)
			}
			c.Disk, c.Issued, c.Phases, c.Queued = rec.TrackName(p.Track), p.Issued, wantB, wantQ
		}
		want = append(want, c)
	}
	sort.SliceStable(want, func(i, j int) bool {
		//detlint:allow floatcmp the reference order compares recorded span bits, as the report's own order does
		if want[i].Duration != want[j].Duration {
			return want[i].Duration > want[j].Duration
		}
		//detlint:allow floatcmp the reference order compares recorded span bits, as the report's own order does
		if want[i].Start != want[j].Start {
			return want[i].Start < want[j].Start
		}
		return want[i].Run < want[j].Run
	})

	all := Build(rec, Options{Makespan: makespan, TopChains: len(want) + 1})
	if !reflect.DeepEqual(all.Chains, want) {
		t.Fatalf("Build's %d chains differ from the stable sort of every stall", len(all.Chains))
	}
	top := Build(rec, Options{Makespan: makespan})
	if n := min(5, len(want)); !reflect.DeepEqual(top.Chains, want[:n:n]) {
		t.Fatalf("Build's default chains %+v, want the first %d of the sorted stalls", top.Chains, n)
	}
	return hits
}

func sameBits(a, b sim.Time) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func sameBreakdown(a, b PhaseBreakdown) bool {
	return sameBits(a.Seek, b.Seek) && sameBits(a.Rotation, b.Rotation) && sameBits(a.Retry, b.Retry) &&
		sameBits(a.Transfer, b.Transfer) && sameBits(a.Outage, b.Outage)
}

// runTraced executes one traced run and returns its makespan.
func runTraced(t *testing.T, cfg core.Config) (*trace.Recorder, sim.Time) {
	t.Helper()
	rec := trace.New(0)
	cfg.Trace = rec
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec, res.TotalTime
}

// TestIndexMatchesLinearJoins holds the indexed joins to the linear
// cascade on the engine matrix, the stall-attribution sweep, a
// fail-slow run with read errors, a run cut short by its event cap and
// hand-built traces aimed at each cascade step and its tie-breaks, and
// requires every step (and the no-match case) to fire somewhere. An
// untruncated engine trace must explain every stall by step 1 or 2, as
// blockingFetch argues; the truncated run must leave a stall unmatched.
func TestIndexMatchesLinearJoins(t *testing.T) {
	var mu sync.Mutex
	var hits stepHits
	check := func(t *testing.T, rec *trace.Recorder, makespan sim.Time) stepHits {
		h := requireSameJoins(t, rec, makespan)
		mu.Lock()
		defer mu.Unlock()
		for step, n := range h {
			hits[step] += n
		}
		return h
	}
	checkEngine := func(t *testing.T, rec *trace.Recorder, makespan sim.Time) {
		if h := check(t, rec, makespan); h[3] > 0 || h[0] > 0 {
			t.Errorf("engine stalls reached step 3 %d times and matched nothing %d times (hits %v)", h[3], h[0], h)
		}
	}
	// The points run in parallel: the linear reference is quadratic,
	// and the 25-block-cache points have ~25k stalls each.
	t.Run("group", func(t *testing.T) {
		for _, c := range coretest.Matrix() {
			t.Run("matrix/"+c.Name, func(t *testing.T) {
				t.Parallel()
				rec, makespan := runTraced(t, c.Config)
				checkEngine(t, rec, makespan)
			})
		}
		// The ext-stall-attribution family's quick grid, synchronized
		// and not: k=25, D=5, N=10, finite CPU.
		for _, inter := range []bool{true, false} {
			for _, sync := range []bool{false, true} {
				for _, cacheBlocks := range []int{25, 250, 500, 800, 1000, 1200} {
					cfg := core.Default()
					cfg.N = 10
					cfg.InterRun, cfg.Synchronized = inter, sync
					cfg.CacheBlocks = cacheBlocks
					cfg.MergeTimePerBlock = sim.Ms(0.3)
					cfg.Seed = 1
					name := fmt.Sprintf("sweep/inter=%v/sync=%v/cache=%d", inter, sync, cacheBlocks)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						rec, makespan := runTraced(t, cfg)
						checkEngine(t, rec, makespan)
					})
				}
			}
		}
		t.Run("fail-slow", func(t *testing.T) {
			t.Parallel()
			cfg := core.Default()
			cfg.K, cfg.BlocksPerRun, cfg.N = 10, 200, 4
			cfg.InterRun = true
			cfg.CacheBlocks = cfg.DefaultCache()
			cfg.MergeTimePerBlock = sim.Ms(0.2)
			cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{
				{Disk: 1, Slowdown: 3, SlowdownAtMs: 200, ReadErrorProb: 0.05},
				{Disk: 3, ReadErrorProb: 0.05},
			}}
			cfg.Seed = 3
			rec, makespan := runTraced(t, cfg)
			retries := 0
			for spans, i := rec.DiskSpans(), 0; i < spans.Len(); i++ {
				if spans.At(i).Phase == trace.PhaseRetry {
					retries++
				}
			}
			if retries == 0 {
				t.Fatal("the faulted run recorded no retry phase")
			}
			checkEngine(t, rec, makespan)
		})
		// Capped at 2,000 events, unsynchronized intra-run prefetching
		// records stalls whose 10-block fetches complete, and would be
		// recorded, only after the cap.
		t.Run("truncated", func(t *testing.T) {
			t.Parallel()
			cfg := core.Default()
			cfg.N = 10
			cfg.CacheBlocks = cfg.DefaultCache()
			cfg.MergeTimePerBlock = sim.Ms(0.3)
			rec := trace.New(2000)
			cfg.Trace = rec
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Truncated() {
				t.Fatal("the capped run did not truncate its trace")
			}
			if h := check(t, rec, res.TotalTime); h[0] == 0 {
				t.Errorf("every stall of the truncated trace matched a fetch (hits %v)", h)
			}
		})
		for _, c := range handBuilt() {
			t.Run("hand/"+c.name, func(t *testing.T) {
				t.Parallel()
				rec := c.rec()
				x := newIndex(rec, c.makespan)
				for i, s := range stallsOf(rec) {
					if got := x.blockingFetch(s); got != c.want[i] {
						t.Fatalf("stall %d %+v: index names fetch %d, want %d", i, s, got, c.want[i])
					}
				}
				check(t, rec, c.makespan)
			})
		}
	})
	if t.Failed() {
		return
	}
	for step, n := range hits {
		if n == 0 {
			t.Errorf("cascade step %d never fired (hits per step, 0 = unattributed: %v)", step, hits)
		}
	}
	t.Logf("hits per cascade step (0 = unattributed): %v", hits)
}

func stallsOf(rec *trace.Recorder) []trace.CPUSpan {
	var out []trace.CPUSpan
	for spans, i := rec.CPUSpans(), 0; i < spans.Len(); i++ {
		if s := spans.At(i); s.Kind == trace.CPUStall && s.Run >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// handCase is a hand-built trace whose stalls (in record order) must
// be pinned to the fetch positions in want.
type handCase struct {
	name     string
	makespan sim.Time
	rec      func() *trace.Recorder
	want     []int
}

func handBuilt() []handCase {
	const d0, d1, d2 = trace.CPUTrack + 1, trace.CPUTrack + 2, trace.CPUTrack + 3
	return []handCase{{
		// Step 1: of the run-0 fetches in flight at 10, fetches 0 and 2
		// were issued at the same instant; the first recorded wins.
		// Fetch 1 was issued earlier but finished before the wake-up.
		name: "equal-issue", makespan: 20, want: []int{0},
		rec: func() *trace.Recorder {
			r := trace.New(0)
			r.Prefetch(d0, 0, 1, 2, 12)
			r.Prefetch(d1, 0, 1, 1, 8)
			r.Prefetch(d1, 0, 1, 2, 15)
			r.Prefetch(d0, 1, 1, 0, 10)
			r.DiskPhase(d0, trace.PhaseSeek, 2, 5)
			r.DiskPhase(d0, trace.PhaseTransfer, 5, 12)
			r.CPUStallOn(0, 5, 10)
			return r
		},
	}, {
		// Step 2: no run-3 fetch is in flight at 9; three fetches of
		// other runs complete exactly then. The earliest issued wins,
		// and of the two issued at 2 the first recorded.
		name: "equal-completion", makespan: 20, want: []int{1},
		rec: func() *trace.Recorder {
			r := trace.New(0)
			r.Prefetch(d0, 0, 1, 3, 9)
			r.Prefetch(d1, 1, 1, 2, 9)
			r.Prefetch(d0, 2, 1, 2, 9)
			r.Prefetch(d1, 3, 1, 1, 5)
			r.DiskPhase(d1, trace.PhaseRotation, 2, 4)
			r.DiskPhase(d1, trace.PhaseTransfer, 4, 9)
			r.CPUStallOn(3, 4, 9)
			return r
		},
	}, {
		// Step 2 under a synchronized batch: the stall's own fetch
		// landed mid-stall, and the CPU woke when the batch's last
		// fetch, of another run, completed. In the second batch two
		// fetches issued together complete together: the first
		// recorded wins.
		name: "synchronized-batch", makespan: 30, want: []int{2, 3},
		rec: func() *trace.Recorder {
			r := trace.New(0)
			r.Prefetch(d0, 0, 2, 10, 14)
			r.Prefetch(d1, 1, 2, 10, 17)
			r.Prefetch(d2, 2, 2, 10, 20)
			r.Prefetch(d1, 2, 2, 21, 25)
			r.Prefetch(d2, 1, 2, 21, 25)
			r.DiskPhase(d2, trace.PhaseSeek, 10, 12)
			r.DiskPhase(d2, trace.PhaseRotation, 12, 16)
			r.DiskPhase(d2, trace.PhaseTransfer, 16, 20)
			r.DiskPhase(d1, trace.PhaseTransfer, 21, 25)
			r.CPUStallOn(0, 12, 20)
			r.CPUStallOn(0, 22, 25)
			return r
		},
	}, {
		// Step 3: no fetch is in flight at 20 or completes then; of
		// the run-0 fetches issued before 20 that end after 10, the
		// latest done wins. Fetches 1 and 2 both end at 18; fetch 2
		// was issued earlier but recorded later, so fetch 1 wins. The
		// second stall starts just as run 1's last fetch completes:
		// touching is not overlapping, so nothing explains it.
		name: "overlap-only", makespan: 40, want: []int{1, -1},
		rec: func() *trace.Recorder {
			r := trace.New(0)
			r.Prefetch(d0, 0, 1, 5, 15)
			r.Prefetch(d1, 0, 1, 8, 18)
			r.Prefetch(d2, 0, 1, 3, 18)
			r.Prefetch(d0, 0, 1, 25, 30)
			r.Prefetch(d1, 0, 1, 1, 9)
			r.Prefetch(d2, 1, 1, 19, 21)
			r.Prefetch(d2, 1, 1, 26, 30)
			r.DiskPhase(d1, trace.PhaseSeek, 8, 9.5)
			r.DiskPhase(d1, trace.PhaseTransfer, 9.5, 18)
			r.CPUStallOn(0, 10, 20)
			r.CPUStallOn(1, 30, 35)
			return r
		},
	}, {
		// Disk spans recorded out of start order, with same-phase
		// overlaps whose sum depends on the order of addition: the
		// phases must still add in record order.
		name: "out-of-order-spans", makespan: 2, want: []int{0},
		rec: func() *trace.Recorder {
			r := trace.New(0)
			r.Prefetch(d0, 0, 3, 0, 1)
			r.DiskPhase(d0, trace.PhaseTransfer, 0.7, 1)
			r.DiskPhase(d0, trace.PhaseTransfer, 0.1, 0.3)
			r.DiskPhase(d0, trace.PhaseTransfer, 0.3, 0.7)
			r.DiskPhase(d0, trace.PhaseSeek, 0, 0.1)
			r.DiskPhase(d0, trace.PhaseTransfer, 1.5, 2.5)
			r.CPUStallOn(0, 0.05, 1)
			return r
		},
	}, {
		// Chains of equal length: report order puts the earlier start
		// first, and of two stalls starting together the lower run.
		name: "tied-chains", makespan: 30, want: []int{0, 1, 2, 3},
		rec: func() *trace.Recorder {
			r := trace.New(0)
			r.Prefetch(d0, 2, 1, 5, 15)
			r.Prefetch(d1, 1, 1, 18, 25)
			r.Prefetch(d2, 0, 1, 19, 25)
			r.Prefetch(d0, 3, 1, 1, 4)
			r.DiskPhase(d0, trace.PhaseTransfer, 5, 15)
			r.DiskPhase(d1, trace.PhaseTransfer, 18, 25)
			r.DiskPhase(d2, trace.PhaseTransfer, 19, 25)
			r.CPUStallOn(2, 10, 15)
			r.CPUStallOn(1, 20, 25)
			r.CPUStallOn(0, 20, 25)
			r.CPUStallOn(3, 2, 4)
			return r
		},
	}, {
		// A trace cut at its event cap: the fetch that ended the stall
		// was dropped, so nothing explains it.
		name: "truncated", makespan: 20, want: []int{-1},
		rec: func() *trace.Recorder {
			r := trace.New(3)
			r.Prefetch(d0, 0, 1, 0, 4)
			r.CPUStallOn(0, 5, 10)
			r.DiskPhase(d0, trace.PhaseTransfer, 0, 4)
			r.Prefetch(d0, 0, 1, 4, 10)
			if !r.Truncated() {
				panic("the cap did not truncate")
			}
			return r
		},
	}}
}

// TestStepDistributionOrdersSamples: samples out of time order are
// integrated as if sorted, equal instants keeping their sample order,
// so only in-order input may skip the sort.
func TestStepDistributionOrdersSamples(t *testing.T) {
	type sample struct {
		at    sim.Time
		level int
	}
	inOrder := []sample{{1, 2}, {3, 5}, {3, 1}, {4, 7}, {6, 0}, {9, 3}}
	shuffled := []sample{{4, 7}, {3, 5}, {9, 3}, {1, 2}, {6, 0}, {3, 1}}
	dist := func(s []sample) Distribution {
		return stepDistribution(len(s), func(i int) (sim.Time, int) { return s[i].at, s[i].level }, 10)
	}
	want, got := dist(inOrder), dist(shuffled)
	if got != want {
		t.Fatalf("shuffled samples give %+v, in-order %+v", got, want)
	}
	if want.Max != 7 || want.P95 != 7 {
		t.Fatalf("in-order samples give %+v, want max 7 and p95 7", want)
	}
}
