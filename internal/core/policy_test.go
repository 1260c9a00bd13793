package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

// fixedTrace builds a shuffled depletion order with `blocks` entries
// per run.
func fixedTrace(seed uint64, k, blocks int) []int {
	trace := make([]int, 0, k*blocks)
	for r := 0; r < k; r++ {
		for b := 0; b < blocks; b++ {
			trace = append(trace, r)
		}
	}
	s := rng.New(seed)
	s.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
	return trace
}

func TestOracleRunUsesLookahead(t *testing.T) {
	trace := fixedTrace(3, 10, 100)
	run := func(pol PrefetchRunPolicy) Result {
		cfg := Default()
		cfg.K = 10
		cfg.D = 2
		cfg.BlocksPerRun = 100
		cfg.N = 5
		cfg.InterRun = true
		cfg.CacheBlocks = 120
		cfg.RunPolicy = pol
		cfg.WorkloadFactory = func(int) workload.Model { return &workload.Sequence{Runs: trace} }
		return mustRun(t, cfg)
	}
	oracle := run(OracleRun)
	random := run(RandomRun)
	if oracle.MergedBlocks != random.MergedBlocks {
		t.Fatalf("merged counts differ: %d vs %d", oracle.MergedBlocks, random.MergedBlocks)
	}
	// On a replayed trace with a tight cache, urgency-lookahead should
	// at minimum not lose badly to random choice.
	if oracle.TotalTime > random.TotalTime*12/10 {
		t.Fatalf("oracle (%v) much slower than random (%v)", oracle.TotalTime, random.TotalTime)
	}
}

func TestOracleFallsBackWithoutLookahead(t *testing.T) {
	// Uniform workload has no lookahead: the oracle must degrade to
	// random and still complete.
	cfg := Default()
	cfg.K = 10
	cfg.D = 2
	cfg.BlocksPerRun = 50
	cfg.N = 3
	cfg.InterRun = true
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.RunPolicy = OracleRun
	res := mustRun(t, cfg)
	if res.MergedBlocks != 500 {
		t.Fatalf("merged = %d", res.MergedBlocks)
	}
}

func TestSequencePeek(t *testing.T) {
	s := &workload.Sequence{Runs: []int{4, 2, 7}}
	if r, ok := s.Peek(0); !ok || r != 4 {
		t.Fatalf("Peek(0) = %d, %v", r, ok)
	}
	if r, ok := s.Peek(2); !ok || r != 7 {
		t.Fatalf("Peek(2) = %d, %v", r, ok)
	}
	if _, ok := s.Peek(3); ok {
		t.Fatal("Peek beyond end succeeded")
	}
	s.Choose([]int{2, 4, 7}) // consumes 4
	if r, ok := s.Peek(0); !ok || r != 2 {
		t.Fatalf("Peek after Choose = %d, %v", r, ok)
	}
	if _, ok := s.Peek(-1); ok {
		t.Fatal("negative Peek succeeded")
	}
}

func TestPolicyStringsComplete(t *testing.T) {
	if OracleRun.String() != "oracle" {
		t.Fatalf("oracle string = %q", OracleRun.String())
	}
	if PrefetchRunPolicy(99).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}
