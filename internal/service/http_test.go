package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fastPoint is a small configuration that simulates in a few
// milliseconds; vary seed (or shape) to make distinct points.
func fastPoint(seed uint64) SimulateRequest {
	return SimulateRequest{K: 4, D: 2, N: 2, BlocksPerRun: 40, Seed: seed}
}

func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", fastPoint(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	var rj struct {
		Strategy string `json:"strategy"`
		K        int    `json:"k"`
		Trials   int    `json:"trials"`
		Results  []struct {
			TotalSeconds float64 `json:"total_seconds"`
			MergedBlocks int64   `json:"merged_blocks"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	if rj.K != 4 || rj.Trials != 1 || len(rj.Results) != 1 {
		t.Fatalf("unexpected result shape: %+v", rj)
	}
	if rj.Results[0].MergedBlocks != 160 || rj.Results[0].TotalSeconds <= 0 {
		t.Fatalf("unexpected trial: %+v", rj.Results[0])
	}

	// Second identical request: served from cache, byte-identical.
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", fastPoint(1))
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q on repeat, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cached response differs from cold one:\n%s\n%s", body, body2)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := SweepRequest{Points: []SimulateRequest{fastPoint(1), fastPoint(2), fastPoint(3)}, Trials: 2}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sw struct {
		Trials int               `json:"trials"`
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Trials != 2 || len(sw.Points) != 3 {
		t.Fatalf("sweep shape: trials=%d points=%d", sw.Trials, len(sw.Points))
	}

	// A simulate for one of the sweep's points hits the shared cache.
	p := fastPoint(2)
	p.Trials = 2
	resp2, _ := postJSON(t, ts.URL+"/v1/simulate", p)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("simulate after sweep: X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	// And a repeat sweep is all hits.
	resp3, _ := postJSON(t, ts.URL+"/v1/sweep", req)
	if got := resp3.Header.Get("X-Cache"); got != "3/3" {
		t.Fatalf("repeat sweep X-Cache = %q, want 3/3", got)
	}
}

func TestBadRequestsAre400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"k": `},
		{"unknown field", `{"kay": 25}`},
		{"bad placement", `{"placement": "diagonal"}`},
		{"bad schedule", `{"schedule": "elevator"}`},
		{"invalid shape", `{"k": 1}`},
		{"negative trials", `{"trials": -1}`},
		{"trailing garbage", `{"k": 4}garbage`},
		{"concatenated objects", `{"k": 4}{"k": 8}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, out)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %s not actionable", out)
			}
		})
	}
}

func TestTrialsLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxTrials: 4})
	p := fastPoint(1)
	p.Trials = 5
	resp, body := postJSON(t, ts.URL+"/v1/simulate", p)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
}

func TestSweepPointLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxPoints: 2})
	req := SweepRequest{Points: []SimulateRequest{fastPoint(1), fastPoint(2), fastPoint(3)}}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	svc.StartDraining()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/simulate", fastPoint(1))
	postJSON(t, ts.URL+"/v1/simulate", fastPoint(1))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`simd_requests_total{endpoint="simulate",code="200"} 2`,
		"simd_cache_hits_total 1",
		"simd_cache_misses_total 1",
		"simd_cache_entries 1",
		"# TYPE simd_cache_bytes gauge",
		"\nsimd_cache_bytes ",
		"# TYPE simd_build_info gauge",
		`simd_build_info{goversion="go`,
		"# TYPE simd_request_latency_seconds histogram",
		`simd_request_latency_seconds_bucket{endpoint="simulate",le="+Inf"} 2`,
		`simd_request_latency_seconds_count{endpoint="simulate"} 2`,
		"# TYPE simd_response_bytes histogram",
		`simd_response_bytes_bucket{endpoint="simulate",le="+Inf"} 2`,
		`simd_response_bytes_count{endpoint="simulate"} 2`,
		"simd_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestMetricsExposition pins the wire details Prometheus scrapers
// depend on: the versioned text content type, a trailing newline, and
// ascending cumulative histogram buckets.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/simulate", fastPoint(1))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Errorf("exposition does not end with a newline")
	}
	// Cumulative bucket counts never decrease within one family.
	var prev int64 = -1
	inLatency := false
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "simd_request_latency_seconds_bucket{"):
			inLatency = true
			var n int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			if n < prev {
				t.Errorf("bucket count decreased: %q after %d", line, prev)
			}
			prev = n
		case inLatency:
			inLatency = false
		}
	}
	if prev < 0 {
		t.Fatalf("no latency bucket lines in exposition:\n%s", body)
	}
}

// TestRequestIDHeader checks that the daemon assigns an ID when the
// client sends none, echoes a client-supplied one, and that two
// assigned IDs differ.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	get := func(hdr string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set(RequestIDHeader, hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get(RequestIDHeader)
	}
	a, b := get(""), get("")
	if a == "" || b == "" {
		t.Fatalf("assigned IDs empty: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("two requests got the same assigned ID %q", a)
	}
	if got := get("client-supplied-7"); got != "client-supplied-7" {
		t.Fatalf("client ID not echoed: got %q", got)
	}
}

// TestTracedSimulate: a traced request embeds the trace, answers
// bypass, and does no cache lookup — so it counts as none of a hit, a
// miss or a shared join — while still caching the plain body. The Go
// API honours the flag the same way as the HTTP handler.
func TestTracedSimulate(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	p := fastPoint(7)
	p.Trace = true
	resp, body := postJSON(t, ts.URL+"/v1/simulate", p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Fatalf("X-Cache = %q, want bypass", got)
	}
	var tr struct {
		K       int `json:"k"`
		Results []struct {
			MergedBlocks int64 `json:"merged_blocks"`
		} `json:"results"`
		Trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		} `json:"trace"`
		TraceTruncated bool `json:"trace_truncated"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("bad traced body: %v", err)
	}
	if tr.K != 4 || len(tr.Results) != 1 || tr.Results[0].MergedBlocks != 160 {
		t.Fatalf("result fields wrong under trace: %+v", tr)
	}
	if len(tr.Trace.TraceEvents) == 0 {
		t.Fatalf("trace has no events")
	}
	if tr.TraceTruncated {
		t.Fatalf("small run truncated its trace")
	}
	if hits, misses, shared := svc.met.snapshot(); hits+misses+shared != 0 {
		t.Fatalf("traced request counted: hits %d, misses %d, shared %d; want none", hits, misses, shared)
	}

	// The traced run populated the plain cache: the same point untraced
	// is a hit with no trace in the body.
	p.Trace = false
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", p)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("untraced repeat X-Cache = %q, want hit", got)
	}
	if bytes.Contains(body2, []byte("traceEvents")) {
		t.Fatalf("plain cached body leaked trace bytes: %s", body2)
	}

	p.Trace = true
	body3, status, err := svc.Simulate(context.Background(), p)
	if err != nil || status != CacheBypass || !bytes.Contains(body3, []byte(`"traceEvents"`)) {
		t.Fatalf("Service.Simulate with Trace: status %q, err %v, traced body %v; want bypass with a trace",
			status, err, bytes.Contains(body3, []byte(`"traceEvents"`)))
	}
	if hits, misses, shared := svc.met.snapshot(); hits != 1 || misses+shared != 0 {
		t.Fatalf("after one cacheable lookup: hits %d, misses %d, shared %d; want 1, 0, 0", hits, misses, shared)
	}
}

func TestTracedSimulateRejectsTrials(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	p := fastPoint(7)
	p.Trace = true
	p.Trials = 3
	resp, body := postJSON(t, ts.URL+"/v1/simulate", p)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
}

func TestSweepRejectsTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	p := fastPoint(1)
	p.Trace = true
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: []SimulateRequest{p}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
}

func TestQueueTimeoutIs503(t *testing.T) {
	// One slot, generous queue, tiny timeout: a request stuck behind a
	// long run times out in queue and maps to 503.
	svc := New(Options{MaxConcurrent: 1, MaxQueue: 8, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	slow := SimulateRequest{K: 16, D: 4, N: 4, BlocksPerRun: 2000, Trials: 8, Seed: 99}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, ts.URL+"/v1/simulate", slow)
	}()
	time.Sleep(10 * time.Millisecond) // let the slow run take the slot

	resp, body := postJSON(t, ts.URL+"/v1/simulate", fastPoint(424242))
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 503 (timed out in queue) or 200 (slot freed in time)", resp.StatusCode, body)
	}
	<-done
	svc.Drain(testCtx(t, 5*time.Second))
}
