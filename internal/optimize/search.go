package optimize

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Eval is one evaluated point's metrics, extracted from the engine's
// aggregate result by the Evaluator.
type Eval struct {
	Seconds   float64 // mean total merge time
	CI95      float64 // 95% CI half-width of Seconds
	Success   float64 // mean success ratio
	Overlap   float64 // mean busy disks while busy
	CachePeak int64   // high-water cache occupancy (max over trials)
	Blocks    int64   // merged blocks per trial
	Cached    bool    // answer came from a cache or a shared in-flight run
}

// Evaluator runs (or recalls) one simulation point. Implementations
// must be deterministic in (cfg, trials) — the service's result-cached
// engine front-end is the canonical one. Cached is pure observability:
// it reports where the answer came from, never changes what it is.
type Evaluator interface {
	Evaluate(ctx context.Context, cfg core.Config, trials int) (Eval, error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(ctx context.Context, cfg core.Config, trials int) (Eval, error)

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(ctx context.Context, cfg core.Config, trials int) (Eval, error) {
	return f(ctx, cfg, trials)
}

// Point statuses in the trace.
const (
	// StatusOK: evaluated and feasible.
	StatusOK = "ok"
	// StatusInfeasible: evaluated, but a constraint failed.
	StatusInfeasible = "infeasible"
	// StatusInvalid: the candidate does not form a runnable Config
	// (e.g. D > K); recorded without an engine evaluation.
	StatusInvalid = "invalid"
)

// TraceEntry is one visited candidate. Objective is the goal-natural
// value (seconds, overlap, or cost per block — overlap is maximized,
// the others minimized); it is meaningful only for status "ok"
// entries. The numeric result fields serialize unconditionally — a
// legitimate value of exactly 0 (possible for overlap or success
// ratio) must stay distinguishable from "not evaluated", so Status,
// not field presence, is the discriminator: "invalid" entries were
// never evaluated and carry all-zero results.
type TraceEntry struct {
	Step      int     `json:"step"`
	Params    Params  `json:"params"`
	Hash      string  `json:"hash,omitempty"`
	Status    string  `json:"status"`
	Objective float64 `json:"objective"`
	Seconds   float64 `json:"seconds"`
	CI95      float64 `json:"ci95_seconds"`
	Overlap   float64 `json:"overlap"`
	Success   float64 `json:"success_ratio"`
	CostRate  float64 `json:"cost_rate"`
	Trials    int     `json:"trials"`
	Cached    bool    `json:"cached,omitempty"`
}

// Result is a finished search.
type Result struct {
	Best *TraceEntry `json:"best,omitempty"` // nil when no feasible point exists
	Knee *TraceEntry `json:"knee,omitempty"` // cheapest near-optimal point
	// Trace lists every visited candidate in visit order. Revisits (a
	// driver returning to a point) appear again — served from the
	// result cache, which is exactly the reuse the trace makes visible.
	Trace []TraceEntry `json:"trace"`
	// Evaluations counts Evaluator calls (adaptive-trial escalations
	// included); CacheServed counts those answered without fresh engine
	// work; Distinct counts unique evaluated configurations.
	Evaluations int `json:"evaluations"`
	CacheServed int `json:"cache_served"`
	Distinct    int `json:"distinct_points"`
	// Truncated reports an abnormal stop: the search exhausted
	// MaxEvaluations or the visit bound before its driver finished.
	Truncated bool `json:"truncated,omitempty"`
}

// Run executes the search and returns its result. The error is non-nil
// only for spec errors, evaluator failures, or context cancellation —
// an exhausted budget or an all-infeasible space is reported in the
// Result, not as an error.
func Run(ctx context.Context, spec Spec, ev Evaluator) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	s := &searcher{
		ctx:   ctx,
		spec:  spec,
		space: newSpace(spec),
		ev:    ev,
		seen:  make(map[string]int),
		best:  -1,
	}
	var err error
	switch spec.Algorithm {
	case Grid:
		err = s.grid()
	case Coordinate:
		err = s.coordinate()
	case Anneal:
		err = s.anneal()
	default:
		return nil, fmt.Errorf("optimize: unknown algorithm %v", spec.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		Trace:       s.trace,
		Evaluations: s.evals,
		CacheServed: s.cacheServed,
		Distinct:    len(s.seen),
		Truncated:   s.truncated,
	}
	if s.best >= 0 {
		best := s.trace[s.best]
		res.Best = &best
		if knee := kneePoint(s.trace, s.spec.Objective.Goal, s.best); knee >= 0 {
			k := s.trace[knee]
			res.Knee = &k
		}
	}
	return res, nil
}

// searcher is the shared driver harness: it owns the trace, the budget,
// the best-so-far bookkeeping, and the adaptive-trial evaluation loop.
type searcher struct {
	ctx   context.Context
	spec  Spec
	space *space
	ev    Evaluator

	trace       []TraceEntry
	seen        map[string]int // config hash → count of evaluated visits
	evals       int
	cacheServed int
	truncated   bool
	best        int     // trace index of the best feasible point, -1 if none
	bestScore   float64 // its internal (minimized) score
}

// visitFactor bounds the whole walk, not just the evaluated part of
// it: a driver may visit at most visitFactor × MaxEvaluations
// candidates. Invalid candidates cost no evaluation, so without this
// bound a space whose cross product is mostly unrunnable (say k and d
// ranges where d > k everywhere) would enumerate — and grow the trace
// — until the context expired, sidestepping MaxEvaluations entirely.
const visitFactor = 4

// stopped reports whether a budget is exhausted or the context done.
func (s *searcher) stopped() bool {
	if s.ctx.Err() != nil {
		return true
	}
	if s.evals >= s.spec.MaxEvaluations || len(s.trace) >= visitFactor*s.spec.MaxEvaluations {
		s.truncated = true
		return true
	}
	return false
}

// score converts an evaluation into the internal minimized objective.
func (s *searcher) score(params Params, ev Eval) float64 {
	switch s.spec.Objective.Goal {
	case MaxOverlap:
		return -ev.Overlap
	case MinCostPerBlock:
		return s.costPerBlock(params, ev)
	default:
		return ev.Seconds
	}
}

// natural converts an evaluation into the goal-natural reported value.
func (s *searcher) natural(params Params, ev Eval) float64 {
	switch s.spec.Objective.Goal {
	case MaxOverlap:
		return ev.Overlap
	case MinCostPerBlock:
		return s.costPerBlock(params, ev)
	default:
		return ev.Seconds
	}
}

// costRate prices one candidate's resources per second. An unlimited
// cache is priced at its observed peak occupancy.
func (s *searcher) costRate(params Params, ev Eval) float64 {
	o := s.spec.Objective
	blocks := float64(params.CacheBlocks)
	if params.CacheBlocks == UnlimitedCache {
		blocks = float64(ev.CachePeak)
	}
	return o.BaseCost + o.DiskCost*float64(params.D) + o.RAMCostPerBlock*blocks
}

func (s *searcher) costPerBlock(params Params, ev Eval) float64 {
	if ev.Blocks == 0 {
		return math.Inf(1)
	}
	return s.costRate(params, ev) * ev.Seconds / float64(ev.Blocks)
}

// feasible applies the constraints.
func (s *searcher) feasible(ev Eval) bool {
	c := s.spec.Constraints
	if c.MaxSeconds > 0 && ev.Seconds > c.MaxSeconds {
		return false
	}
	if c.MinSuccess > 0 && ev.Success < c.MinSuccess {
		return false
	}
	return true
}

// visit evaluates one candidate (adaptive trials, budget accounting,
// trace recording, best tracking) and returns its internal score:
// +Inf for infeasible or invalid points.
func (s *searcher) visit(p point) (float64, error) {
	entry := TraceEntry{Step: len(s.trace)}
	cfg, params, err := s.space.materialize(s.spec.Template, p)
	entry.Params = params
	if err != nil {
		entry.Status = StatusInvalid
		s.trace = append(s.trace, entry)
		return math.Inf(1), nil
	}
	hash, err := cfg.Hash()
	if err != nil {
		// A template that cannot be canonically encoded (callbacks,
		// caller workloads) cannot be searched over a result cache.
		return 0, fmt.Errorf("optimize: candidate has no canonical hash: %w", err)
	}
	entry.Hash = hash

	// Adaptive trials: evaluate at Min, double toward Max until the
	// relative CI of mean total time is tight enough. Every escalation
	// is its own (config, trials) cache key, so a revisited escalation
	// ladder is served entirely from cache.
	trials := s.spec.Trials.Min
	var ev Eval
	cached := true
	for {
		e, err := s.ev.Evaluate(s.ctx, cfg, trials)
		if err != nil {
			return 0, err
		}
		s.evals++
		if e.Cached {
			s.cacheServed++
		} else {
			cached = false
		}
		ev = e
		if s.spec.Trials.RelCI95 <= 0 || trials >= s.spec.Trials.Max {
			break
		}
		if stats.RelCI(ev.CI95, ev.Seconds) <= s.spec.Trials.RelCI95 {
			break
		}
		if s.evals >= s.spec.MaxEvaluations {
			s.truncated = true
			break
		}
		trials *= 2
		if trials > s.spec.Trials.Max {
			trials = s.spec.Trials.Max
		}
	}

	entry.Seconds = ev.Seconds
	entry.CI95 = ev.CI95
	entry.Overlap = ev.Overlap
	entry.Success = ev.Success
	entry.CostRate = s.costRate(params, ev)
	entry.Trials = trials
	entry.Cached = cached
	s.seen[hash]++

	score := math.Inf(1)
	if s.feasible(ev) {
		entry.Status = StatusOK
		entry.Objective = s.natural(params, ev)
		score = s.score(params, ev)
		if s.best < 0 || score < s.bestScore {
			s.best, s.bestScore = len(s.trace), score
		}
	} else {
		entry.Status = StatusInfeasible
	}
	s.trace = append(s.trace, entry)
	return score, nil
}

// grid enumerates the cross product in lexicographic dimension order.
func (s *searcher) grid() error {
	var p point
	for {
		if s.stopped() {
			return s.ctx.Err()
		}
		if _, err := s.visit(p); err != nil {
			return err
		}
		// Increment the mixed-radix counter, least-significant (cache)
		// dimension first.
		i := numDims - 1
		for ; i >= 0; i-- {
			p[i]++
			if p[i] < s.space.size(i) {
				break
			}
			p[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// coordinate is cyclic coordinate descent from the space's midpoint:
// sweep each dimension holding the others fixed, move to the best
// value, and stop when a full pass improves nothing. Re-evaluations of
// the incumbent are cache hits, not fresh runs.
func (s *searcher) coordinate() error {
	cur := s.space.mid()
	curScore, err := s.visit(cur)
	if err != nil {
		return err
	}
	for improved := true; improved; {
		improved = false
		for dim := 0; dim < numDims; dim++ {
			bestIdx := cur[dim]
			for idx := 0; idx < s.space.size(dim); idx++ {
				if idx == cur[dim] {
					continue
				}
				if s.stopped() {
					return s.ctx.Err()
				}
				cand := cur
				cand[dim] = idx
				sc, err := s.visit(cand)
				if err != nil {
					return err
				}
				if sc < curScore {
					curScore, bestIdx = sc, idx
				}
			}
			if bestIdx != cur[dim] {
				cur[dim] = bestIdx
				improved = true
			}
		}
	}
	return nil
}

// anneal is simulated annealing over the space's neighbor graph: one
// random dimension steps to an adjacent value (±1 index) per proposal,
// uphill moves are accepted with probability exp(-relΔ/T), and T cools
// geometrically. The walk runs its Anneal.Steps proposal budget to
// completion — that is its normal termination; Truncated fires only
// when the evaluation or visit budget cuts the schedule short. All
// randomness comes from one rng stream seeded by Spec.Seed, so the
// walk is a pure function of the spec.
func (s *searcher) anneal() error {
	r := rng.New(s.spec.Seed)
	cur := s.space.mid()
	curScore, err := s.visit(cur)
	if err != nil {
		return err
	}
	// Dimensions with at least two values are the movable ones.
	var movable []int
	for i := 0; i < numDims; i++ {
		if s.space.size(i) > 1 {
			movable = append(movable, i)
		}
	}
	if len(movable) == 0 {
		return nil
	}
	temp := s.spec.Anneal.Temp
	for step := 0; step < s.spec.Anneal.Steps; step++ {
		if s.stopped() {
			break
		}
		dim := movable[r.Intn(len(movable))]
		idx := cur[dim]
		if r.Uint64()&1 == 0 {
			idx--
		} else {
			idx++
		}
		if idx < 0 || idx >= s.space.size(dim) {
			// Walked off the edge: the proposal still spends its step
			// and cools, it just burns no evaluation.
			temp *= s.spec.Anneal.Cooling
			continue
		}
		cand := cur
		cand[dim] = idx
		sc, err := s.visit(cand)
		if err != nil {
			return err
		}
		accept := sc < curScore
		if !accept && math.IsInf(curScore, 1) {
			// Both infeasible/invalid: wander freely toward feasibility.
			accept = true
		} else if !accept && !math.IsInf(sc, 1) {
			rel := (sc - curScore) / math.Max(math.Abs(curScore), 1e-12)
			if r.Float64() < math.Exp(-rel/temp) {
				accept = true
			}
		}
		if accept {
			cur, curScore = cand, sc
		}
		temp *= s.spec.Anneal.Cooling
	}
	return s.ctx.Err()
}
