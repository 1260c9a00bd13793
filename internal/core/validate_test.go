package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// TestValidateRejectsInvalidConfigs is the table of invalid inputs the
// HTTP boundary (internal/service) relies on core to reject, asserting
// the error text names the offending value so a 400 response is
// actionable without reading source.
func TestValidateRejectsInvalidConfigs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"k zero", func(c *Config) { c.K = 0 }, "K = 0"},
		{"k negative", func(c *Config) { c.K = -3 }, "K = -3"},
		{"d zero", func(c *Config) { c.D = 0 }, "D = 0"},
		{"d exceeds k", func(c *Config) { c.K, c.D = 4, 9 }, "D = 9 not in [1, K=4]"},
		{"blocks per run zero", func(c *Config) { c.BlocksPerRun = 0 }, "BlocksPerRun = 0"},
		{"run lengths wrong count", func(c *Config) { c.RunLengths = []int{10, 10} }, "2 run lengths for K = 25"},
		{"run length zero", func(c *Config) { c.K, c.D, c.RunLengths = 3, 2, []int{10, 0, 10} }, "run 1 has 0 blocks"},
		{"n zero", func(c *Config) { c.N = 0 }, "N = 0"},
		{"n negative", func(c *Config) { c.N = -1 }, "N = -1"},
		{"n exceeds run length", func(c *Config) { c.N = 2000; c.CacheBlocks = 80000 }, "N = 2000 exceeds longest run 1000"},
		{"cache below demand minimum", func(c *Config) { c.CacheBlocks = c.K - 1 }, "cache 24 blocks < K = 25 (one block per run minimum)"},
		{"negative merge time", func(c *Config) { c.MergeTimePerBlock = sim.Ms(-1) }, "negative merge time"},
		{"merge time above cap", func(c *Config) { c.MergeTimePerBlock = sim.Ms(1e308) }, "merge time 1e+305s not in [0, 1000s] per block"},
		{"NaN merge time", func(c *Config) { c.MergeTimePerBlock = sim.Ms(math.NaN()) }, "merge time NaNs not in [0, 1000s] per block"},
		{"bad disk geometry", func(c *Config) { c.Disk.Geometry.Cylinders = 0 }, "invalid geometry"},
		{"bad disk block size", func(c *Config) { c.Disk.BlockBytes = 0 }, "BlockBytes = 0"},
		{"data exceeds disk capacity", func(c *Config) { c.BlocksPerRun = 1 << 20 }, "geometry holds"},
		{"write buffer below batch", func(c *Config) {
			c.Write.Enabled = true
			c.Write.BatchBlocks = 8
			c.Write.BufferBlocks = 4
		}, "write buffer 4 smaller than batch 8"},
		{"fault on nonexistent disk", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 5, Slowdown: 2}}}
		}, "faults: spec 0 targets disk 5, want [0, D=5)"},
		{"fault negative disk", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: -1}}}
		}, "targets disk -1"},
		{"fault slowdown below one", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 0, Slowdown: 0.5}}}
		}, "slowdown 0.5 < 1 (a fail-slow disk cannot be faster)"},
		{"fault negative error probability", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 0, ReadErrorProb: -0.1}}}
		}, "read error probability -0.1 not in [0, 1]"},
		{"fault probability above one", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 0, ReadErrorProb: 1.5}}}
		}, "read error probability 1.5 not in [0, 1]"},
		{"fault overlapping outages", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{
				Disk:    1,
				Outages: []faults.Window{{StartMs: 0, EndMs: 100}, {StartMs: 50, EndMs: 200}},
			}}}
		}, "outage windows overlap at 50 ms"},
		{"fault inverted outage", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{
				Disk:    0,
				Outages: []faults.Window{{StartMs: 100, EndMs: 100}},
			}}}
		}, "outage 0 ends at 100 ms, not after its start 100 ms"},
		{"fault slowdown above cap", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 0, Slowdown: 1e306}}}
		}, "slowdown 1e+306 not in [1, 1e+06]"},
		{"fault endless outage", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 0, Outages: []faults.Window{{StartMs: 0, EndMs: math.Inf(1)}}}}}
		}, "outage 0 [0, +Inf) ms is not finite"},
		{"fault duplicate disk entries", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 2, Slowdown: 2}, {Disk: 2, Slowdown: 3}}}
		}, "disk 2 out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestValidateAcceptsBoundaryConfigs pins the valid edge cases next to
// the invalid ones so the boundary is explicit.
func TestValidateAcceptsBoundaryConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(c *Config) {}},
		{"single run replay", func(c *Config) { c.K, c.D, c.CacheBlocks = 1, 1, 1 }},
		{"cache exactly k", func(c *Config) { c.CacheBlocks = c.K }},
		{"d equals k", func(c *Config) { c.D = c.K }},
		{"n equals run length", func(c *Config) { c.N = c.BlocksPerRun; c.CacheBlocks = c.K * c.N }},
		{"merge time at cap", func(c *Config) { c.MergeTimePerBlock = MaxMergeTimePerBlock }},
		{"fault slowdown at cap", func(c *Config) {
			c.Faults = &faults.Spec{Disks: []faults.DiskSpec{{Disk: 0, Slowdown: faults.MaxSlowdown}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate rejected a valid config: %v", err)
			}
		})
	}
}
