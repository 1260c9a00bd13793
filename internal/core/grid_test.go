package core

import (
	"testing"

	"repro/internal/workload"
)

func TestRunGridMatchesSerialTrials(t *testing.T) {
	cfg := small()
	cfg.N = 3
	cfg.InterRun = true

	serial, err := RunGrid([]Config{cfg}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGrid([]Config{cfg}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial[0], par[0]
	if a.TotalTime.Mean() != b.TotalTime.Mean() ||
		a.SuccessRatio.Mean() != b.SuccessRatio.Mean() ||
		a.StallTime.Mean() != b.StallTime.Mean() {
		t.Fatalf("parallel aggregate differs: %+v vs %+v", a.TotalTime, b.TotalTime)
	}
	for i := range a.Results {
		if a.Results[i].TotalTime != b.Results[i].TotalTime {
			t.Fatalf("trial %d diverged: %v vs %v", i, a.Results[i].TotalTime, b.Results[i].TotalTime)
		}
	}
}

func TestRunGridKeepsPointOrder(t *testing.T) {
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = small()
		cfgs[i].K = 4 + 2*i
		cfgs[i].CacheBlocks = cfgs[i].DefaultCache()
	}
	aggs, err := RunGrid(cfgs, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != len(cfgs) {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	for i, agg := range aggs {
		if agg.Config.K != cfgs[i].K {
			t.Fatalf("aggregate %d carries K=%d, want %d", i, agg.Config.K, cfgs[i].K)
		}
		if agg.Trials != 2 || len(agg.Results) != 2 {
			t.Fatalf("aggregate %d trials = %d", i, agg.Trials)
		}
		// Trial seeds must be cfg.Seed and cfg.Seed+1 in order.
		for trial, res := range agg.Results {
			if want := cfgs[i].Seed + uint64(trial); res.Config.Seed != want {
				t.Fatalf("aggregate %d trial %d seed = %d, want %d", i, trial, res.Config.Seed, want)
			}
		}
	}
}

func TestWorkloadFactoryPerTrial(t *testing.T) {
	cfg := small()
	seen := make(map[int]bool)
	var mu chan struct{} // factory runs concurrently; serialize the map
	mu = make(chan struct{}, 1)
	mu <- struct{}{}
	cfg.WorkloadFactory = func(trial int) workload.Model {
		<-mu
		seen[trial] = true
		mu <- struct{}{}
		return uniformSequence(cfg.K, cfg.BlocksPerRun)
	}
	agg, err := RunTrials(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 3 {
		t.Fatalf("trials = %d", agg.Trials)
	}
	for trial := 0; trial < 3; trial++ {
		if !seen[trial] {
			t.Fatalf("factory never called for trial %d", trial)
		}
	}
}

func TestRunGridRejectsZeroTrials(t *testing.T) {
	if _, err := RunGrid([]Config{small()}, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// uniformSequence builds a replayable depletion trace touching every
// run round-robin — a minimal stateful workload for factory tests.
func uniformSequence(k, blocks int) *workload.Sequence {
	runs := make([]int, 0, k*blocks)
	for b := 0; b < blocks; b++ {
		for r := 0; r < k; r++ {
			runs = append(runs, r)
		}
	}
	return &workload.Sequence{Runs: runs}
}
