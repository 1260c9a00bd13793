package service

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/layout"
)

func TestRequestDefaultsMatchPaperBaseline(t *testing.T) {
	cfg, err := SimulateRequest{}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 25 || cfg.D != 5 || cfg.N != 1 || cfg.BlocksPerRun != 1000 {
		t.Fatalf("defaults = k=%d d=%d n=%d blocks=%d", cfg.K, cfg.D, cfg.N, cfg.BlocksPerRun)
	}
	if cfg.CacheBlocks != cfg.DefaultCache() {
		t.Fatalf("default cache = %d, want natural %d", cfg.CacheBlocks, cfg.DefaultCache())
	}
	if cfg.Seed != 1 {
		t.Fatalf("default seed = %d", cfg.Seed)
	}
}

func TestRequestEnumNames(t *testing.T) {
	cfg, err := SimulateRequest{
		Schedule:  "scan",
		Placement: "striped",
		Admission: "greedy",
		RunPolicy: "least-buffered",
		Disk:      "modern",
		N:         4,
	}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Disk.Discipline != disk.SCAN {
		t.Errorf("discipline = %v", cfg.Disk.Discipline)
	}
	if cfg.Placement != layout.Striped {
		t.Errorf("placement = %v", cfg.Placement)
	}
	if cfg.Admission != cache.Greedy {
		t.Errorf("admission = %v", cfg.Admission)
	}
	if cfg.Disk.BlockBytes != disk.ModernParams().BlockBytes || cfg.Disk.Geometry != disk.ModernParams().Geometry {
		t.Errorf("disk model not modern: %+v", cfg.Disk)
	}
}

// TestRequestRejections pins the HTTP boundary's rejection behavior:
// every invalid input yields a *requestError (HTTP 400) whose text
// names the offending field or value.
func TestRequestRejections(t *testing.T) {
	cases := []struct {
		name    string
		req     SimulateRequest
		wantSub string
	}{
		{"bad schedule", SimulateRequest{Schedule: "elevator"}, `schedule "elevator"`},
		{"bad placement", SimulateRequest{Placement: "diagonal"}, `placement "diagonal"`},
		{"bad admission", SimulateRequest{Admission: "optimistic"}, `admission "optimistic"`},
		{"bad run policy", SimulateRequest{RunPolicy: "psychic"}, `run_policy "psychic"`},
		{"bad disk", SimulateRequest{Disk: "ssd"}, `disk "ssd"`},
		{"k too small", SimulateRequest{K: 1}, "k = 1"},
		{"d too large", SimulateRequest{K: 4, D: 8}, "D = 8"},
		{"negative n", SimulateRequest{N: -3}, "N = -3"},
		{"cache below demand minimum", SimulateRequest{K: 10, D: 2, CacheBlocks: 5}, "cache 5 blocks < K = 10"},
		{"negative cache sentinel", SimulateRequest{CacheBlocks: -7}, "cache_blocks = -7"},
		{"run lengths mismatch", SimulateRequest{K: 3, D: 2, RunLengths: []int{10, 10}}, "2 run lengths for K = 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.Config()
			if err == nil {
				t.Fatal("Config() accepted an invalid request")
			}
			var reqErr *requestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("error %v is not a requestError (would not map to 400)", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
