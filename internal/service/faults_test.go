package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestPanicRecovery is the hardening regression: a panicking handler
// must answer 500, bump simd_panics_total, and leave the daemon
// serving.
func TestPanicRecovery(t *testing.T) {
	svc := New(Options{})
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("GET /boom", svc.instrumented("boom", func(http.ResponseWriter, *http.Request) int {
		panic("handler bug")
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/boom")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("500 body %s is not the JSON error shape", body)
		}
	}

	// The daemon keeps serving real traffic after the panics.
	resp, body := postJSON(t, ts.URL+"/v1/simulate", fastPoint(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate after panic: status %d: %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"simd_panics_total 2",
		`simd_requests_total{endpoint="boom",code="500"} 2`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q\n%s", want, metrics)
		}
	}
}

// TestFaultRequestsRejected pins the HTTP 400 path for invalid fault
// specs: the validation text reaches the client verbatim.
func TestFaultRequestsRejected(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	cases := []struct {
		name    string
		body    string
		wantSub string
	}{
		{
			"nonexistent disk",
			`{"faults": [{"disk": 9, "slowdown": 2}]}`,
			"faults: spec 0 targets disk 9, want [0, D=5)",
		},
		{
			"slowdown below one",
			`{"faults": [{"disk": 0, "slowdown": 0.5}]}`,
			"slowdown 0.5 < 1",
		},
		{
			"negative probability",
			`{"faults": [{"disk": 0, "read_error_prob": -0.5}]}`,
			"read error probability -0.5 not in [0, 1]",
		},
		{
			"overlapping outages",
			`{"faults": [{"disk": 1, "outages": [{"start_ms": 0, "end_ms": 100}, {"start_ms": 50, "end_ms": 150}]}]}`,
			"outage windows overlap at 50 ms",
		},
		{
			// Large enough to overflow the simulated clock: refused
			// at validation, never reaching the engine.
			"slowdown above cap",
			`{"k":4,"d":2,"n":2,"blocks_per_run":20,"faults":[{"disk":0,"slowdown":1e306}]}`,
			"slowdown 1e+306 not in [1, 1e+06]",
		},
		{
			"unknown fault field",
			`{"faults": [{"disk": 0, "slowness": 2}]}`,
			"unknown field",
		},
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
			if err := json.Unmarshal(out, &e); err != nil {
				t.Fatalf("error body %s is not JSON", out)
			}
			if !strings.Contains(e.Error, tc.wantSub) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantSub)
			}
		})
	}
	if p := svc.met.panicsSnapshot(); p != 0 {
		t.Fatalf("simd_panics_total = %d after rejected requests, want 0", p)
	}
}

// TestFaultedSimulateServes runs a degraded-disk point end to end over
// HTTP and checks the fault counters ride the shared schema.
func TestFaultedSimulateServes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := fastPoint(7)
	req.Faults = []faults.DiskSpec{{Disk: 1, Slowdown: 3}}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rj struct {
		Results []struct {
			SlowdownSeconds float64 `json:"fault_slowdown_seconds"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	if len(rj.Results) != 1 || rj.Results[0].SlowdownSeconds <= 0 {
		t.Fatalf("faulted point reported no slowdown time: %s", body)
	}

	// A healthy point's body must not mention fault counters at all, and
	// the faulted point must not poison its cache entry.
	_, healthy := postJSON(t, ts.URL+"/v1/simulate", fastPoint(7))
	if strings.Contains(string(healthy), "fault_") {
		t.Fatalf("healthy body leaks fault fields: %s", healthy)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp2.Header.Get("X-Cache") != "hit" || string(body2) != string(body) {
		t.Fatalf("faulted repeat: X-Cache=%q, bytes equal=%v", resp2.Header.Get("X-Cache"), string(body2) == string(body))
	}
}

// TestUnreadableFaultIs500NotPoisoned: a run aborted by ErrUnreadable
// maps to 500, and the key is not left poisoned — a retry gets a fresh
// (still failing) run rather than hanging.
func TestUnreadableFaultIs500NotPoisoned(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := fastPoint(3)
	req.Faults = []faults.DiskSpec{{Disk: 0, ReadErrorProb: 1, MaxRetries: 1}}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status %d, want 500; body %s", i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "unreadable") {
			t.Fatalf("attempt %d: error body %s does not name the unreadable disk", i, body)
		}
	}
}

// TestClientDisconnectMidRun: killing the requester mid-run must not
// crash the daemon or poison the singleflight — the detached run
// finishes into the cache and a later request is served normally.
func TestClientDisconnectMidRun(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	point := SimulateRequest{K: 16, D: 4, N: 4, BlocksPerRun: 1500, Trials: 4, Seed: 17}
	buf, err := json.Marshal(point)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the run start
	cancel()                          // client walks away mid-run
	<-errc

	// The same point answers — joining the still-running detached run,
	// its cached result, or a fresh run. Either way the flight key is
	// live, not poisoned.
	resp, body := postJSON(t, ts.URL+"/v1/simulate", point)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect status %d: %s", resp.StatusCode, body)
	}
	// And shutdown still drains cleanly.
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatalf("drain after disconnect: %v", err)
	}
}
