package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/disk"
	"repro/internal/workload"
)

func TestCanonicalJSONDeterministic(t *testing.T) {
	a, err := Default().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical encodings of equal configs differ:\n%s\n%s", a, b)
	}
	var m map[string]any
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("canonical encoding is not valid JSON: %v", err)
	}
}

func TestHashSeparatesConfigs(t *testing.T) {
	base := Default()
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Config{}
	v := base
	v.N = 10
	variants["N"] = v
	v = base
	v.Seed = 7
	variants["Seed"] = v
	v = base
	v.InterRun = true
	variants["InterRun"] = v
	v = base
	v.Disk.Discipline = disk.SSTF
	variants["Discipline"] = v
	v = base
	v.Write.Enabled = true
	variants["Write"] = v
	for name, cfg := range variants {
		h, err := cfg.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == baseHash {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

// TestHashStable pins the default configuration's hash. Hashes key the
// simd result cache and the persistent disk tier, so they must stay
// stable across releases: a change here orphans every stored entry.
func TestHashStable(t *testing.T) {
	const want = "f73d2214ccff36df6b94020c4eeec1605dbb3cdcc61f9f35f0b9eeb791b4493a"
	got, err := Default().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Default().Hash() = %s, want %s", got, want)
	}
}

func TestCanonicalJSONRefusesCallbacks(t *testing.T) {
	cases := map[string]func(*Config){
		"WorkloadFactory": func(c *Config) { c.WorkloadFactory = func(int) workload.Model { return &workload.Sequence{} } },
	}
	for name, set := range cases {
		cfg := Default()
		set(&cfg)
		if _, err := cfg.CanonicalJSON(); err == nil {
			t.Errorf("%s: CanonicalJSON accepted a non-encodable config", name)
		}
	}
}

// TestResultJSONMatchesAggregate pins the shared schema to the engine's
// aggregate so the CLI and the daemon cannot drift apart silently.
func TestResultJSONMatchesAggregate(t *testing.T) {
	cfg := Default()
	cfg.K = 4
	cfg.D = 2
	cfg.BlocksPerRun = 50
	cfg.N = 2
	cfg.CacheBlocks = cfg.DefaultCache()
	agg, err := RunTrials(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	rj := NewResultJSON(agg)
	if rj.Trials != 2 || len(rj.Results) != 2 {
		t.Fatalf("trials = %d, results = %d, want 2/2", rj.Trials, len(rj.Results))
	}
	if rj.K != cfg.K || rj.D != cfg.D || rj.N != cfg.N || rj.CacheBlocks != cfg.CacheBlocks {
		t.Fatalf("shape mismatch: %+v vs config %+v", rj, cfg)
	}
	if rj.Strategy != cfg.StrategyName() {
		t.Fatalf("strategy %q, want %q", rj.Strategy, cfg.StrategyName())
	}
	if rj.MeanSeconds != agg.TotalTime.Mean() {
		t.Fatalf("mean seconds %v, want %v", rj.MeanSeconds, agg.TotalTime.Mean())
	}
	for i, tr := range rj.Results {
		res := agg.Results[i]
		if tr.Seed != res.Config.Seed {
			t.Errorf("trial %d seed %d, want %d", i, tr.Seed, res.Config.Seed)
		}
		if tr.TotalSeconds != res.TotalTime.Seconds() {
			t.Errorf("trial %d total %v, want %v", i, tr.TotalSeconds, res.TotalTime.Seconds())
		}
		if len(tr.Disks) != cfg.D {
			t.Errorf("trial %d has %d disks, want %d", i, len(tr.Disks), cfg.D)
		}
	}
}
