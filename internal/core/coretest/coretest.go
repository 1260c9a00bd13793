// Package coretest is test support shared by the core package and its
// dependents: the engine's config matrix, and a checker for the golden
// files that pin the engine's reproducible outputs.
package coretest

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Case is one named point of the config matrix.
type Case struct {
	Name   string
	Config core.Config
}

// Matrix returns the engine config matrix: every synchronization mode,
// placement, queue discipline, rotational model, run policy, admission
// policy, writer mode, fault flavour, and workload family the engine
// branches on. The core goldens pin each point's results; the explain
// property tests demand conservation on each point's trace.
func Matrix() []Case {
	small := func() core.Config {
		cfg := core.Default()
		cfg.K, cfg.D, cfg.BlocksPerRun = 8, 4, 60
		cfg.CacheBlocks = cfg.DefaultCache()
		return cfg
	}
	var cases []Case
	add := func(name string, c core.Config) { cases = append(cases, Case{name, c}) }

	add("no-prefetch", small())

	c := small()
	c.N = 4
	c.Synchronized = true
	c.CacheBlocks = c.DefaultCache()
	add("intra-sync", c)

	c = small()
	c.N = 4
	c.CacheBlocks = c.DefaultCache()
	add("intra-unsync", c)

	c = small()
	c.N = 3
	c.InterRun = true
	c.Synchronized = true
	c.CacheBlocks = c.DefaultCache()
	add("inter-sync", c)

	c = small()
	c.N = 3
	c.InterRun = true
	c.CacheBlocks = c.DefaultCache()
	add("inter-unsync", c)

	c = small()
	c.N = 3
	c.InterRun = true
	c.Placement = layout.Striped
	c.CacheBlocks = c.DefaultCache()
	add("striped", c)

	c = small()
	c.N = 3
	c.InterRun = true
	c.Placement = layout.Clustered
	c.RunPolicy = core.LeastBufferedRun
	c.CacheBlocks = c.DefaultCache()
	add("clustered-least-buffered", c)

	c = small()
	c.N = 3
	c.InterRun = true
	c.RunPolicy = core.RoundRobinRun
	c.Disk.Discipline = disk.SSTF
	c.CacheBlocks = c.DefaultCache()
	add("round-robin-sstf", c)

	c = small()
	c.N = 4
	c.Disk.Discipline = disk.SCAN
	c.Disk.Rotational = disk.RotConstant
	add("scan-rot-constant", c)

	c = small()
	c.N = 4
	c.Disk.Rotational = disk.RotPositional
	add("rot-positional", c)

	c = small()
	c.N = 5
	c.InterRun = true
	c.Admission = cache.Greedy
	c.CacheBlocks = c.K*c.N/2 + c.K // tight: trims batches
	add("greedy-tight-cache", c)

	c = small()
	c.N = 6
	c.InterRun = true
	c.AdaptiveN = true
	c.CacheBlocks = c.K*c.N/2 + c.K
	add("adaptive-n", c)

	c = small()
	c.N = 3
	c.MergeTimePerBlock = sim.Ms(0.7)
	add("finite-cpu", c)

	c = small()
	c.N = 3
	c.Write = core.WriteConfig{Enabled: true, Disks: 2, BatchBlocks: 4, BufferBlocks: 10}
	add("write-separate", c)

	c = small()
	c.N = 3
	c.MergeTimePerBlock = sim.Ms(0.2)
	c.Write = core.WriteConfig{Enabled: true, Shared: true}
	add("write-shared", c)

	c = small()
	c.N = 3
	c.Faults = &faults.Spec{Disks: []faults.DiskSpec{
		{Disk: 0, Slowdown: 2.5, SlowdownAtMs: 200},
		{Disk: 2, ReadErrorProb: 0.05, MaxRetries: 50},
		{Disk: 3, Outages: []faults.Window{{StartMs: 100, EndMs: 400}}},
	}}
	add("faulty-disks", c)

	c = small()
	c.N = 3
	c.InterRun = true
	c.CacheBlocks = c.DefaultCache()
	c.WorkloadFactory = func(trial int) workload.Model {
		return &workload.Skewed{R: rng.New(uint64(trial) + 7), Theta: 0.8}
	}
	add("skewed-workload", c)

	c = small()
	c.N = 3
	c.InterRun = true
	c.RunPolicy = core.OracleRun
	c.CacheBlocks = c.DefaultCache()
	c.WorkloadFactory = func(trial int) workload.Model {
		seq := make([]int, 2000)
		for i := range seq {
			seq[i] = (i*(trial+3) + i/7) % 8
		}
		return &workload.Sequence{Runs: seq}
	}
	add("oracle-sequence", c)

	c = small()
	c.N = 4
	c.MaxSimTime = sim.Ms(1500) // cuts the merge short: partial results
	add("timed-out", c)

	return cases
}

// Digest returns the hex SHA-256 of b, the value goldens store for
// outputs too large to keep verbatim.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Golden is a loaded golden file: one "name value" line per entry,
// with blank lines and lines starting with '#' ignored. Check compares
// entries one at a time and Done reports entries nothing produced. A
// mismatch prints the replacement line, so a deliberate model change
// is a hand edit of the file.
type Golden struct {
	path string
	want map[string]string
}

// LoadGolden reads the golden file at path.
func LoadGolden(t testing.TB, path string) *Golden {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	defer f.Close()
	g := &Golden{path: path, want: map[string]string{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden %s: malformed line %q", path, line)
		}
		if _, dup := g.want[name]; dup {
			t.Fatalf("golden %s: duplicate entry %q", path, name)
		}
		g.want[name] = value
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden %s: %v", path, err)
	}
	return g
}

// Check compares the value produced for name against its entry.
func (g *Golden) Check(t testing.TB, name, got string) {
	t.Helper()
	want, ok := g.want[name]
	switch {
	case !ok:
		t.Errorf("golden %s: no entry %q; add the line:\n%s %s", g.path, name, name, got)
	case want != got:
		t.Errorf("golden %s: %q changed; new line:\n%s %s", g.path, name, name, got)
	}
	delete(g.want, name)
}

// Done reports every entry no Check consumed.
func (g *Golden) Done(t testing.TB) {
	t.Helper()
	stale := make([]string, 0, len(g.want))
	for name := range g.want {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("golden %s: stale entry %q is no longer produced", g.path, name)
	}
}
