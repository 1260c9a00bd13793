package service

import (
	"net/http"
	"strconv"
	"testing"

	"repro/internal/core/coretest"
)

// TestGoldenBodies pins what every /v1/* endpoint answers over one
// fixed, sequential script: per step the HTTP status, the X-Cache
// value ("-" when unset) and the SHA-256 of the body. The script walks
// each serving path — cold and cached simulates, traced simulates,
// sweeps with a duplicate point, explains (cached, truncated and
// rejected) and an optimize search — so a change to how requests are
// resolved cannot alter a byte or a cache disposition unnoticed.
func TestGoldenBodies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, truncTS := newTestServer(t, Options{MaxTraceEvents: 40})

	faulted := SimulateRequest{
		K: 6, D: 3, N: 2, BlocksPerRun: 60, Trials: 3, Seed: 102,
		Write:  &WriteRequest{Disks: 1, BatchBlocks: 4},
		Faults: []FaultRequest{{Disk: 1, Slowdown: 2, ReadErrorProb: 0.05, MaxRetries: 3}},
	}
	traced := fastPoint(103)
	traced.Trace = true
	tracedTrials := traced
	tracedTrials.Trials = 3
	sweep := SweepRequest{Points: []SimulateRequest{fastPoint(104), fastPoint(105), fastPoint(104)}, Trials: 2}
	sweepTraced := SweepRequest{Points: []SimulateRequest{fastPoint(106), traced}}
	explainTraced := fastPoint(107)
	explainTraced.Trace = true
	opt := OptimizeRequest{
		Template: &SimulateRequest{K: 4, D: 2, BlocksPerRun: 40, Seed: 108},
		Space: OptimizeSpaceRequest{
			N:          &DimensionRequest{Values: []int{1, 2}},
			Strategies: []string{"intra-unsync", "inter-unsync"},
		},
	}

	steps := []struct {
		name string
		url  string
		body any
	}{
		{"simulate-cold", ts.URL + "/v1/simulate", fastPoint(101)},
		{"simulate-hit", ts.URL + "/v1/simulate", fastPoint(101)},
		{"simulate-3trials-writes-faults", ts.URL + "/v1/simulate", faulted},
		{"traced", ts.URL + "/v1/simulate", traced},
		{"traced-plain-repeat", ts.URL + "/v1/simulate", fastPoint(103)},
		{"traced-trials3", ts.URL + "/v1/simulate", tracedTrials},
		{"sweep-2trials-dup", ts.URL + "/v1/sweep", sweep},
		{"sweep-repeat", ts.URL + "/v1/sweep", sweep},
		{"sweep-traced", ts.URL + "/v1/sweep", sweepTraced},
		{"explain-cold", ts.URL + "/v1/explain", fastPoint(107)},
		{"explain-hit", ts.URL + "/v1/explain", fastPoint(107)},
		{"explain-plain-simulate", ts.URL + "/v1/simulate", fastPoint(107)},
		{"explain-trace-flag", ts.URL + "/v1/explain", explainTraced},
		{"explain-truncated", truncTS.URL + "/v1/explain", fastPoint(109)},
		{"explain-truncated-repeat", truncTS.URL + "/v1/explain", fastPoint(109)},
		{"optimize-cold", ts.URL + "/v1/optimize", opt},
		{"optimize-warm", ts.URL + "/v1/optimize", opt},
	}
	g := coretest.LoadGolden(t, "testdata/bodies.golden")
	for _, st := range steps {
		resp, body := postJSON(t, st.url, st.body)
		xc := resp.Header.Get("X-Cache")
		if xc == "" {
			xc = "-"
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", st.name, resp.StatusCode, body)
		}
		g.Check(t, st.name, strconv.Itoa(resp.StatusCode)+" "+xc+" "+coretest.Digest(body))
	}
	g.Done(t)
}
