package service

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeSimulateRequest drives arbitrary bytes through the exact
// request path a client reaches: the strict bounded JSON decode, then
// request→Config materialization, then the canonical hash that keys the
// result cache. None of it may panic, and a body that decodes to a
// valid config must hash identically on every call — a flaky hash would
// silently split the cache.
func FuzzDecodeSimulateRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"k":25,"d":5,"n":1,"blocks_per_run":1000,"seed":1}`))
	f.Add([]byte(`{"k":4,"d":2,"run_lengths":[10,20,30,40],"cache_blocks":-1,"trials":3}`))
	f.Add([]byte(`{"schedule":"scan","placement":"striped","admission":"greedy","run_policy":"oracle","disk":"modern"}`))
	f.Add([]byte(`{"write":{"shared":true,"disks":2,"batch_blocks":4,"buffer_blocks":16}}`))
	f.Add([]byte(`{"faults":[{"disk":0,"slowdown":2.5,"read_error_prob":0.01,"max_retries":3,"outages":[{"start_ms":10,"end_ms":20}]}]}`))
	f.Add([]byte(`{"k":1e999}`))
	f.Add([]byte(`{"k":2}{"k":3}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`"a string, not an object"`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, body []byte) {
		var req SimulateRequest
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/simulate", bytes.NewReader(body))
		if code := decodeBody(rec, hr, &req); code != 0 {
			return // rejected bodies are fine; not panicking is the contract
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		h1, err := cfg.Hash()
		if err != nil {
			// A wire request can't smuggle in callbacks or workload
			// models, so every validated config must be hashable.
			t.Fatalf("valid request produced unhashable config: %v", err)
		}
		h2, err := cfg.Hash()
		if err != nil || h1 != h2 {
			t.Fatalf("hash not stable: %q then %q (err %v)", h1, h2, err)
		}
	})
}

// FuzzDecodeOptimizeRequest drives arbitrary bytes through the optimize
// request path: strict decode, then spec construction and validation.
// Nothing may panic, and a body that builds a valid spec must build it
// identically on every call — the spec is the cache-key surface of a
// whole search, so instability would split every evaluation's key.
func FuzzDecodeOptimizeRequest(f *testing.F) {
	f.Add([]byte(`{"space":{"n":{"values":[1,2,4]}}}`))
	f.Add([]byte(`{"template":{"k":4,"d":2,"blocks_per_run":40},"space":{"d":{"min":1,"max":2},"strategies":["intra-unsync","inter-sync"]}}`))
	f.Add([]byte(`{"space":{"cache_blocks":{"values":[-1,0,25]}},"objective":{"goal":"min_cost_per_block","disk_cost":2}}`))
	f.Add([]byte(`{"space":{"n":{"min":1,"max":8,"step":2}},"search":{"algorithm":"anneal","seed":9,"max_evaluations":32,"temp":0.5,"cooling":0.9,"steps":20}}`))
	f.Add([]byte(`{"space":{"d":{"min":5,"max":9}},"search":{"steps":-1}}`))
	f.Add([]byte(`{"space":{"k":{"values":[4,8]}},"trials":{"min":2,"max":8,"rel_ci95":0.1},"constraints":{"max_seconds":100,"min_success":0.5}}`))
	f.Add([]byte(`{"space":{"placements":["striped","clustered"]},"figure":true}`))
	f.Add([]byte(`{"space":{}}`))
	f.Add([]byte(`{"space":{"n":{"values":[1]}},"search":{"max_evaluations":1e999}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{0x7b, 0xff})

	svc := New(Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req OptimizeRequest
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
		if code := decodeBody(rec, hr, &req); code != 0 {
			return // rejected bodies are fine; not panicking is the contract
		}
		spec1, err := svc.buildSpec(req)
		if err != nil {
			return
		}
		h1, err := spec1.Template.Hash()
		if err != nil {
			t.Fatalf("valid spec has unhashable template: %v", err)
		}
		spec2, err := svc.buildSpec(req)
		if err != nil {
			t.Fatalf("spec built once, failed twice: %v", err)
		}
		h2, err := spec2.Template.Hash()
		if err != nil || h1 != h2 {
			t.Fatalf("template hash not stable: %q then %q (err %v)", h1, h2, err)
		}
	})
}
