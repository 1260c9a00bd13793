package service

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/optimize"
)

// OptimizeRequest is the wire form of one configuration search. The
// template is an ordinary SimulateRequest naming the fixed knobs (its
// trials and trace fields must stay unset — replication is the trial
// policy's job, and a search result has no single timeline to trace);
// the space lists candidate values for the searched knobs; everything
// else tunes the search itself.
type OptimizeRequest struct {
	Template    *SimulateRequest     `json:"template,omitempty"`
	Space       OptimizeSpaceRequest `json:"space"`
	Objective   *ObjectiveRequest    `json:"objective,omitempty"`
	Constraints *ConstraintsRequest  `json:"constraints,omitempty"`
	Search      *SearchRequest       `json:"search,omitempty"`
	Trials      *TrialPolicyRequest  `json:"trials,omitempty"`

	// Figure embeds an SVG of the search trajectory in the response.
	Figure bool `json:"figure,omitempty"`
}

// DimensionRequest is one searched knob: either an explicit value list
// or an inclusive min/max range with a step (default 1). For
// cache_blocks the values 0 (natural size at each candidate) and -1
// (unlimited) are meaningful; ranges must be positive.
type DimensionRequest struct {
	Values []int `json:"values,omitempty"`
	Min    int   `json:"min,omitempty"`
	Max    int   `json:"max,omitempty"`
	Step   int   `json:"step,omitempty"`
}

// OptimizeSpaceRequest is the wire form of the search space. Omitted
// dimensions are pinned at the template's value.
type OptimizeSpaceRequest struct {
	K           *DimensionRequest `json:"k,omitempty"`
	D           *DimensionRequest `json:"d,omitempty"`
	N           *DimensionRequest `json:"n,omitempty"`
	CacheBlocks *DimensionRequest `json:"cache_blocks,omitempty"`
	// Strategies: intra-unsync | intra-sync | inter-unsync | inter-sync.
	Strategies []string `json:"strategies,omitempty"`
	// Placements: round-robin | clustered | striped.
	Placements []string `json:"placements,omitempty"`
}

// ObjectiveRequest selects and prices the objective.
type ObjectiveRequest struct {
	Goal            string  `json:"goal,omitempty"` // min_time | max_overlap | min_cost_per_block
	DiskCost        float64 `json:"disk_cost,omitempty"`
	RAMCostPerBlock float64 `json:"ram_cost_per_block,omitempty"`
	BaseCost        float64 `json:"base_cost,omitempty"`
}

// ConstraintsRequest bounds feasibility.
type ConstraintsRequest struct {
	MaxSeconds float64 `json:"max_seconds,omitempty"`
	MinSuccess float64 `json:"min_success,omitempty"`
}

// SearchRequest tunes the driver.
type SearchRequest struct {
	Algorithm      string  `json:"algorithm,omitempty"` // grid | coordinate | anneal
	Seed           uint64  `json:"seed,omitempty"`
	MaxEvaluations int     `json:"max_evaluations,omitempty"`
	Temp           float64 `json:"temp,omitempty"`    // anneal initial temperature
	Cooling        float64 `json:"cooling,omitempty"` // anneal geometric cooling
	Steps          int     `json:"steps,omitempty"`   // anneal proposal budget (0 = max_evaluations − 1)
}

// TrialPolicyRequest is the adaptive replication rule: start at min
// trials and double toward max until the 95% CI of mean merge time is
// within rel_ci95 of itself.
type TrialPolicyRequest struct {
	Min     int     `json:"min,omitempty"`
	Max     int     `json:"max,omitempty"`
	RelCI95 float64 `json:"rel_ci95,omitempty"`
}

// optimizeResponse is the wire form of a finished search.
type optimizeResponse struct {
	Algorithm string `json:"algorithm"`
	Goal      string `json:"goal"`
	Seed      uint64 `json:"seed"`
	optimize.Result
	FigureSVG string `json:"figure_svg,omitempty"`
}

// dimension materializes one wire dimension.
func (d *DimensionRequest) dimension(name string) (optimize.Dimension, error) {
	if d == nil {
		return optimize.Dimension{}, nil
	}
	if len(d.Values) > 0 {
		if d.Min != 0 || d.Max != 0 || d.Step != 0 {
			return optimize.Dimension{}, badRequestf("space.%s: give values or min/max, not both", name)
		}
		return optimize.Dimension{Values: d.Values}, nil
	}
	if d.Min == 0 && d.Max == 0 {
		return optimize.Dimension{}, badRequestf("space.%s: empty dimension (omit it to pin at the template value)", name)
	}
	if d.Min <= 0 || d.Max < d.Min {
		return optimize.Dimension{}, badRequestf("space.%s: range [%d, %d] (want 0 < min <= max; sentinels only in values)", name, d.Min, d.Max)
	}
	if d.Step < 0 {
		return optimize.Dimension{}, badRequestf("space.%s: step %d", name, d.Step)
	}
	return optimize.Range(d.Min, d.Max, d.Step), nil
}

// buildSpec materializes the wire request into a validated search spec.
// Every error return is a 400: specs are fully checked before any
// engine work starts.
func (s *Service) buildSpec(req OptimizeRequest) (optimize.Spec, error) {
	tmpl := req.Template
	if tmpl == nil {
		tmpl = &SimulateRequest{}
	}
	if tmpl.Trials != 0 {
		return optimize.Spec{}, badRequestf("template.trials is not allowed; set the trials policy at the top level")
	}
	if tmpl.Trace {
		return optimize.Spec{}, badRequestf("template.trace is not allowed; a search has no single timeline to trace")
	}
	cfg, err := tmpl.config()
	if err != nil {
		return optimize.Spec{}, err
	}

	var spec optimize.Spec
	spec.Template = cfg
	if spec.Space.K, err = req.Space.K.dimension("k"); err != nil {
		return optimize.Spec{}, err
	}
	for _, v := range spec.Space.K.Values {
		if v < 2 {
			return optimize.Spec{}, badRequestf("space.k: %d (a merge needs at least 2 runs)", v)
		}
	}
	if spec.Space.D, err = req.Space.D.dimension("d"); err != nil {
		return optimize.Spec{}, err
	}
	if spec.Space.N, err = req.Space.N.dimension("n"); err != nil {
		return optimize.Spec{}, err
	}
	if spec.Space.CacheBlocks, err = req.Space.CacheBlocks.dimension("cache_blocks"); err != nil {
		return optimize.Spec{}, err
	}
	for _, name := range req.Space.Strategies {
		st, err := optimize.ParseStrategy(name)
		if err != nil {
			return optimize.Spec{}, badRequestf("space.strategies: %v", err)
		}
		spec.Space.Strategies = append(spec.Space.Strategies, st)
	}
	for _, name := range req.Space.Placements {
		p, err := layout.ParsePlacement(name)
		if err != nil {
			return optimize.Spec{}, badRequestf("space.placements: %v", err)
		}
		spec.Space.Placements = append(spec.Space.Placements, p)
	}

	if o := req.Objective; o != nil {
		if spec.Objective.Goal, err = optimize.ParseGoal(o.Goal); err != nil {
			return optimize.Spec{}, badRequestf("objective.goal: %v", err)
		}
		if o.DiskCost < 0 || o.RAMCostPerBlock < 0 || o.BaseCost < 0 {
			return optimize.Spec{}, badRequestf("objective: negative cost weights")
		}
		spec.Objective.DiskCost = o.DiskCost
		spec.Objective.RAMCostPerBlock = o.RAMCostPerBlock
		spec.Objective.BaseCost = o.BaseCost
	}
	if c := req.Constraints; c != nil {
		spec.Constraints = optimize.Constraints{MaxSeconds: c.MaxSeconds, MinSuccess: c.MinSuccess}
	}
	if sr := req.Search; sr != nil {
		if spec.Algorithm, err = optimize.ParseAlgorithm(sr.Algorithm); err != nil {
			return optimize.Spec{}, badRequestf("search.algorithm: %v", err)
		}
		if sr.MaxEvaluations > s.opts.MaxOptimizeEvals {
			return optimize.Spec{}, badRequestf("search.max_evaluations = %d exceeds the limit of %d", sr.MaxEvaluations, s.opts.MaxOptimizeEvals)
		}
		spec.Seed = sr.Seed
		spec.MaxEvaluations = sr.MaxEvaluations
		spec.Anneal = optimize.AnnealParams{Temp: sr.Temp, Cooling: sr.Cooling, Steps: sr.Steps}
	}
	if spec.MaxEvaluations == 0 && s.opts.MaxOptimizeEvals < 256 {
		spec.MaxEvaluations = s.opts.MaxOptimizeEvals // keep the package default under the service cap
	}
	if tp := req.Trials; tp != nil {
		if tp.Min > s.opts.MaxTrials || tp.Max > s.opts.MaxTrials {
			return optimize.Spec{}, badRequestf("trials policy exceeds the limit of %d", s.opts.MaxTrials)
		}
		spec.Trials = optimize.TrialPolicy{Min: tp.Min, Max: tp.Max, RelCI95: tp.RelCI95}
		if tp.RelCI95 > 0 && tp.Max == 0 {
			spec.Trials.Max = s.opts.MaxTrials
		}
	}
	if err := spec.Validate(); err != nil {
		return optimize.Spec{}, badRequestf("%v", err)
	}
	return spec, nil
}

// evaluateCandidate serves one search candidate as a plain point
// through resolve, the path a /v1/simulate request takes, so concurrent
// searches and simulate traffic share every evaluation. Cached reports
// whether the answer involved no fresh engine work for this caller (a
// cache hit or a joined in-flight run).
func (s *Service) evaluateCandidate(ctx context.Context, cfg core.Config, trials int) (optimize.Eval, error) {
	a, err := s.resolveOne(ctx, cfg, trials, plain)
	if err != nil {
		return optimize.Eval{}, err
	}
	var r core.ResultJSON
	if err := json.Unmarshal(a.body, &r); err != nil {
		return optimize.Eval{}, err
	}
	ev := optimize.Eval{
		Seconds: r.MeanSeconds,
		CI95:    r.CI95Seconds,
		Success: r.MeanSuccess,
		Cached:  a.status != CacheMiss,
	}
	var overlap float64
	for _, t := range r.Results {
		overlap += t.Overlap
		if t.CachePeak > ev.CachePeak {
			ev.CachePeak = t.CachePeak
		}
		ev.Blocks = t.MergedBlocks
	}
	if len(r.Results) > 0 {
		ev.Overlap = overlap / float64(len(r.Results))
	}
	return ev, nil
}

// Optimize runs one configuration search and returns the marshaled
// response body plus (cache-served, total) evaluation counts for the
// X-Cache accounting. The whole search shares one RequestTimeout
// budget; a search cut off by it fails rather than returning a partial
// optimum silently.
func (s *Service) Optimize(ctx context.Context, req OptimizeRequest) ([]byte, int, int, error) {
	spec, err := s.buildSpec(req)
	if err != nil {
		return nil, 0, 0, err
	}
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	start := time.Now() //detlint:allow nondet search-duration instrumentation measures real wall time, never simulation state
	res, err := optimize.Run(ctx, spec, optimize.EvaluatorFunc(s.evaluateCandidate))
	if err != nil {
		return nil, 0, 0, err
	}
	//detlint:allow nondet search-duration instrumentation measures real wall time, never simulation state
	s.met.addOptimize(int64(res.Evaluations), int64(res.CacheServed), time.Since(start).Seconds())

	out := optimizeResponse{
		Algorithm: spec.Algorithm.String(),
		Goal:      spec.Objective.Goal.String(),
		Seed:      spec.Seed,
		Result:    *res,
	}
	if out.Seed == 0 {
		out.Seed = 1 // the applied default; echo what actually drove the search
	}
	if req.Figure && res.Best != nil {
		var buf bytes.Buffer
		if err := optimize.TrajectoryFigure(spec, res).WriteSVG(&buf, 800, 400); err == nil {
			out.FigureSVG = buf.String()
		}
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, 0, 0, err
	}
	return body, res.CacheServed, res.Evaluations, nil
}
