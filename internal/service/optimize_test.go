package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// optimizePoint is a small search over the fastPoint template: 2
// strategies × 2 prefetch depths at the natural cache size for each
// candidate, each a few-millisecond simulation.
func optimizePoint() OptimizeRequest {
	return OptimizeRequest{
		Template: &SimulateRequest{K: 4, D: 2, BlocksPerRun: 40},
		Space: OptimizeSpaceRequest{
			N:           &DimensionRequest{Values: []int{1, 2}},
			Strategies:  []string{"intra-unsync", "inter-unsync"},
			CacheBlocks: &DimensionRequest{Values: []int{0}},
		},
	}
}

// optResponse mirrors the optimize wire response for assertions.
type optResponse struct {
	Algorithm   string            `json:"algorithm"`
	Goal        string            `json:"goal"`
	Seed        uint64            `json:"seed"`
	Best        json.RawMessage   `json:"best"`
	Knee        json.RawMessage   `json:"knee"`
	Trace       []json.RawMessage `json:"trace"`
	Evaluations int               `json:"evaluations"`
	CacheServed int               `json:"cache_served"`
	Distinct    int               `json:"distinct_points"`
	Truncated   bool              `json:"truncated"`
	FigureSVG   string            `json:"figure_svg"`
}

func decodeOptResponse(t *testing.T, body []byte) optResponse {
	t.Helper()
	var r optResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("unmarshal optimize response: %v\n%s", err, body)
	}
	return r
}

// withoutCached strips the cached observability flag from a trace or
// best entry so warm and cold runs compare equal, per the determinism
// contract (only Cached may differ between runs of one spec).
func withoutCached(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	if len(raw) == 0 {
		return ""
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal entry: %v", err)
	}
	delete(m, "cached")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/optimize", optimizePoint())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "0/4" {
		t.Errorf("X-Cache = %q, want 0/4 (cold grid, no revisits)", got)
	}
	r := decodeOptResponse(t, body)
	if r.Algorithm != "grid" || r.Goal != "min_time" || r.Seed != 1 {
		t.Errorf("echoed search = %s/%s seed %d", r.Algorithm, r.Goal, r.Seed)
	}
	if r.Evaluations != 4 || r.Distinct != 4 || len(r.Trace) != 4 || r.Truncated {
		t.Errorf("evals %d distinct %d trace %d truncated %v", r.Evaluations, r.Distinct, len(r.Trace), r.Truncated)
	}
	if len(r.Best) == 0 || len(r.Knee) == 0 {
		t.Fatalf("best or knee missing: %s", body)
	}
	var best struct {
		Status string  `json:"status"`
		Secs   float64 `json:"seconds"`
		Params struct {
			N int `json:"n"`
		} `json:"params"`
	}
	if err := json.Unmarshal(r.Best, &best); err != nil {
		t.Fatal(err)
	}
	if best.Status != "ok" || best.Secs <= 0 {
		t.Errorf("best = %s", r.Best)
	}
	// Prefetching beats no-prefetch on this workload, so the optimum
	// is never the N=1 intra-run baseline.
	if best.Params.N == 1 {
		var baseline struct {
			InterRun bool `json:"inter_run"`
		}
		if err := json.Unmarshal(r.Best, &baseline); err == nil && !baseline.InterRun {
			t.Errorf("optimum is the no-prefetch baseline: %s", r.Best)
		}
	}
}

func TestOptimizeMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/optimize", optimizePoint())
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE simd_optimize_requests_total counter",
		"simd_optimize_requests_total 1",
		"# TYPE simd_optimize_evaluations_total counter",
		"simd_optimize_evaluations_total 4",
		"# TYPE simd_optimize_cache_served_total counter",
		"simd_optimize_cache_served_total 0",
		"# TYPE simd_optimize_search_seconds histogram",
		`simd_optimize_search_seconds_bucket{le="+Inf"} 1`,
		"simd_optimize_search_seconds_count 1",
		`simd_requests_total{endpoint="optimize",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestOptimizeWarmRepeatServedFromCache pins the cache-reuse
// acceptance bar: repeating a search on a warm service answers at
// least 90% of evaluations (here: all of them) from the result cache,
// visibly in the trace, the X-Cache header, and the
// simd_optimize_cache_served_total counter.
func TestOptimizeWarmRepeatServedFromCache(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	_, cold := postJSON(t, ts.URL+"/v1/optimize", optimizePoint())
	resp, warm := postJSON(t, ts.URL+"/v1/optimize", optimizePoint())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, warm)
	}
	if got := resp.Header.Get("X-Cache"); got != "4/4" {
		t.Errorf("warm X-Cache = %q, want 4/4", got)
	}
	w := decodeOptResponse(t, warm)
	if w.CacheServed < (w.Evaluations*9+9)/10 {
		t.Errorf("warm repeat served %d of %d evaluations from cache, want >= 90%%", w.CacheServed, w.Evaluations)
	}
	for i, e := range w.Trace {
		var entry struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(e, &entry); err != nil || !entry.Cached {
			t.Errorf("warm trace[%d] not cache-served: %s", i, e)
		}
	}
	c := decodeOptResponse(t, cold)
	if withoutCached(t, c.Best) != withoutCached(t, w.Best) {
		t.Errorf("warm best differs from cold best:\n%s\n%s", c.Best, w.Best)
	}
	if _, _, served := svc.met.optimizeSnapshot(); served == 0 {
		t.Error("simd_optimize_cache_served_total still zero after a warm repeat")
	}
}

// TestOptimizeWorkerCountIndependence pins the tentpole determinism
// claim end to end: two cold services whose engines fan evaluations
// over different worker counts produce byte-identical response bodies
// for the same seeded search.
func TestOptimizeWorkerCountIndependence(t *testing.T) {
	req := optimizePoint()
	req.Space.D = &DimensionRequest{Min: 1, Max: 2}
	req.Search = &SearchRequest{Algorithm: "anneal", Seed: 5, MaxEvaluations: 16}
	req.Trials = &TrialPolicyRequest{Min: 2}

	run := func(workers int) []byte {
		t.Helper()
		_, ts := newTestServer(t, Options{Workers: workers})
		resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d status %d: %s", workers, resp.StatusCode, body)
		}
		return body
	}
	one, eight := run(1), run(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("worker count changed the response:\n%s\n%s", one, eight)
	}
}

// TestOptimizeConcurrentSearchesShareEvaluations hammers one service
// with 32 concurrent searches over overlapping spaces. Candidates the
// spaces share flow through the same result cache and singleflight
// table as plain simulate traffic, so the searches must agree
// byte-for-byte on their optima (modulo the cached flag) and a healthy
// share of evaluations must be cache-served.
func TestOptimizeConcurrentSearchesShareEvaluations(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	spaces := []OptimizeSpaceRequest{
		{N: &DimensionRequest{Values: []int{1, 2}}, Strategies: []string{"intra-unsync", "inter-unsync"}},
		{N: &DimensionRequest{Values: []int{2, 4}}, Strategies: []string{"intra-unsync", "inter-unsync"}},
	}
	const clients = 32
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := optimizePoint()
			req.Space = spaces[i%2]
			resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	wg.Wait()

	best := map[int]string{}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, codes[i], bodies[i])
		}
		r := decodeOptResponse(t, bodies[i])
		got := withoutCached(t, r.Best)
		if prev, ok := best[i%2]; !ok {
			best[i%2] = got
		} else if prev != got {
			t.Fatalf("client %d optimum diverged:\n%s\n%s", i, prev, got)
		}
	}
	if best[0] == best[1] {
		t.Fatalf("distinct spaces found identical optima: %s", best[0])
	}
	if _, evals, served := svc.met.optimizeSnapshot(); served == 0 || evals == 0 {
		t.Fatalf("no shared evaluations across %d overlapping searches (evals %d, served %d)", clients, evals, served)
	}
}

func TestOptimizeFigure(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := optimizePoint()
	req.Figure = true
	resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	r := decodeOptResponse(t, body)
	if !strings.Contains(r.FigureSVG, "<svg") {
		t.Errorf("figure_svg missing or not SVG: %.80s", r.FigureSVG)
	}
}

func TestOptimizeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxOptimizeEvals: 32, MaxTrials: 8})
	cases := []struct {
		name string
		mut  func(*OptimizeRequest)
		want string
	}{
		{"template trials", func(r *OptimizeRequest) { r.Template.Trials = 3 }, "template.trials"},
		{"template trace", func(r *OptimizeRequest) { r.Template.Trace = true }, "template.trace"},
		{"empty space", func(r *OptimizeRequest) { r.Space = OptimizeSpaceRequest{} }, "search space is empty"},
		{"unknown strategy", func(r *OptimizeRequest) { r.Space.Strategies = []string{"psychic"} }, "unknown strategy"},
		{"unknown placement", func(r *OptimizeRequest) { r.Space.Placements = []string{"shuffled"} }, "unknown placement"},
		{"values and range", func(r *OptimizeRequest) {
			r.Space.N = &DimensionRequest{Values: []int{1, 2}, Min: 1, Max: 4}
		}, "not both"},
		{"inverted range", func(r *OptimizeRequest) { r.Space.D = &DimensionRequest{Min: 4, Max: 2} }, "range"},
		{"k below 2", func(r *OptimizeRequest) { r.Space.K = &DimensionRequest{Values: []int{1, 4}} }, "at least 2 runs"},
		{"budget over cap", func(r *OptimizeRequest) { r.Search = &SearchRequest{MaxEvaluations: 64} }, "exceeds the limit"},
		{"trials over cap", func(r *OptimizeRequest) { r.Trials = &TrialPolicyRequest{Min: 2, Max: 16} }, "exceeds the limit"},
		{"negative cost", func(r *OptimizeRequest) { r.Objective = &ObjectiveRequest{DiskCost: -1} }, "negative cost"},
		{"unknown goal", func(r *OptimizeRequest) { r.Objective = &ObjectiveRequest{Goal: "max_vibes"} }, "unknown goal"},
		{"unknown algorithm", func(r *OptimizeRequest) { r.Search = &SearchRequest{Algorithm: "lbfgs"} }, "unknown algorithm"},
		{"invalid template", func(r *OptimizeRequest) { r.Template.D = 9 }, "not in"},
	}
	for _, tc := range cases {
		req := optimizePoint()
		tc.mut(&req)
		resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %s, want substring %q", tc.name, body, tc.want)
		}
	}
}

// TestOptimizeSharesCacheWithSimulate proves the two endpoints draw
// from one pool: a point simulated via /v1/simulate is a cache hit for
// a later search that visits it.
func TestOptimizeSharesCacheWithSimulate(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sim := SimulateRequest{K: 4, D: 2, N: 2, BlocksPerRun: 40}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", sim)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	req := OptimizeRequest{
		Template: &SimulateRequest{K: 4, D: 2, BlocksPerRun: 40},
		Space: OptimizeSpaceRequest{
			N:           &DimensionRequest{Values: []int{1, 2}},
			CacheBlocks: &DimensionRequest{Values: []int{0}},
		},
	}
	resp, body = postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d %s", resp.StatusCode, body)
	}
	if r := decodeOptResponse(t, body); r.CacheServed != 1 {
		t.Errorf("cache_served = %d, want exactly the pre-simulated point", r.CacheServed)
	}
}

// TestOptimizeOmittedCacheIsNatural checks what an omitted cache_blocks
// dimension means: each candidate's natural cache when the template
// sets none, the template's size when it does. At k=6, D=3 the natural
// cache is 6 blocks for N=1 and 24 for N=4; pinned at 6 blocks, N=4
// starves (success ratio 0.026).
func TestOptimizeOmittedCacheIsNatural(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	type entry struct {
		Params struct {
			N           int `json:"n"`
			CacheBlocks int `json:"cache_blocks"`
		} `json:"params"`
		Seconds float64 `json:"seconds"`
		Success float64 `json:"success_ratio"`
	}
	search := func(cacheBlocks int) []entry {
		t.Helper()
		req := OptimizeRequest{
			Template: &SimulateRequest{K: 6, D: 3, BlocksPerRun: 40, CacheBlocks: cacheBlocks},
			Space:    OptimizeSpaceRequest{N: &DimensionRequest{Values: []int{1, 4}}},
		}
		resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("template cache %d: status %d: %s", cacheBlocks, resp.StatusCode, body)
		}
		r := decodeOptResponse(t, body)
		out := make([]entry, len(r.Trace))
		for i, raw := range r.Trace {
			if err := json.Unmarshal(raw, &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		if len(out) != 2 || out[0].Params.N != 1 || out[1].Params.N != 4 {
			t.Fatalf("template cache %d: trace %s", cacheBlocks, body)
		}
		return out
	}

	natural := search(0)
	if natural[0].Params.CacheBlocks != 6 || natural[1].Params.CacheBlocks != 24 {
		t.Errorf("omitted cache: N=1 in %d blocks, N=4 in %d, want 6 and 24",
			natural[0].Params.CacheBlocks, natural[1].Params.CacheBlocks)
	}
	if natural[1].Success != 1 || natural[1].Seconds >= natural[0].Seconds/2 {
		t.Errorf("N=4 in its natural cache: %.3f s at success %.3f (N=1: %.3f s)",
			natural[1].Seconds, natural[1].Success, natural[0].Seconds)
	}

	pinned := search(6)
	for _, e := range pinned {
		if e.Params.CacheBlocks != 6 {
			t.Errorf("template cache 6: N=%d ran in %d blocks", e.Params.N, e.Params.CacheBlocks)
		}
	}
	if pinned[1].Success > 0.1 {
		t.Errorf("N=4 pinned at 6 blocks: success %.3f, want starved", pinned[1].Success)
	}
}
