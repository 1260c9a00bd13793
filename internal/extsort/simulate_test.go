package extsort

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
)

// sortForSim runs a real sort sized to produce a healthy number of runs
// and returns its one merge group.
func sortForSim(t *testing.T, seed uint64, records int, formation RunFormation) Group {
	t.Helper()
	cfg := testConfig()
	cfg.MemoryBlocks = 16 // 16-block runs so prefetch depths up to 4 are meaningful
	cfg.Formation = formation
	in, err := NewSliceReader(randomData(seed, records), cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	w := NewCountingWriter(cfg)
	st, err := Sort(cfg, 0, in, newMemStore, w)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Ordered() {
		t.Fatal("sort output unordered")
	}
	return onlyGroup(t, st)
}

func simBase(d, n int, inter bool) core.Config {
	base := core.Default()
	base.D = d
	base.N = n
	base.InterRun = inter
	base.CacheBlocks = cache.Unlimited
	base.Disk.Rotational = disk.RotConstant
	return base
}

func TestSimulateMergeRealTrace(t *testing.T) {
	g := sortForSim(t, 11, 600, LoadSort)
	if len(g.RunBlocks) < 4 {
		t.Fatalf("only %d runs", len(g.RunBlocks))
	}
	res, err := SimulateMerge(g, simBase(2, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range g.RunBlocks {
		total += b
	}
	if res.MergedBlocks != int64(total) {
		t.Fatalf("simulated %d blocks, sort had %d", res.MergedBlocks, total)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestSimulateMergeStrategiesOrdering(t *testing.T) {
	// On a real trace, the paper's ordering must hold: combined
	// prefetching beats intra-run beats none.
	g := sortForSim(t, 12, 1500, LoadSort)
	none, err := SimulateMerge(g, simBase(4, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	intra, err := SimulateMerge(g, simBase(4, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	inter, err := SimulateMerge(g, simBase(4, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if !(inter.TotalTime < intra.TotalTime && intra.TotalTime < none.TotalTime) {
		t.Fatalf("ordering violated on real trace: inter=%v intra=%v none=%v",
			inter.TotalTime, intra.TotalTime, none.TotalTime)
	}
}

func TestSimulateMergeUnequalRuns(t *testing.T) {
	// Replacement selection produces unequal runs; the simulator must
	// accept them via RunLengths.
	g := sortForSim(t, 13, 900, ReplacementSelection)
	unequal := false
	for _, b := range g.RunBlocks[1:] {
		if b != g.RunBlocks[0] {
			unequal = true
		}
	}
	if !unequal && len(g.RunBlocks) > 2 {
		t.Log("note: replacement selection produced equal runs this seed")
	}
	res, err := SimulateMerge(g, simBase(2, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestSimulateMergeValidation(t *testing.T) {
	if _, err := SimulateMerge(Group{Trace: Trace{Runs: []int{0}}}, simBase(1, 1, false)); err == nil {
		t.Fatal("no runs accepted")
	}
	if _, err := SimulateMerge(Group{RunBlocks: []int{3}}, simBase(1, 1, false)); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := SimulateMerge(Group{RunBlocks: []int{3}, Trace: Trace{Runs: []int{0, 0}}}, simBase(1, 1, false)); err == nil {
		t.Fatal("trace/block mismatch accepted")
	}
}

func TestSimulateMergeClampsD(t *testing.T) {
	// Two runs but a 5-disk base: D must clamp to K.
	g := sortForSim(t, 14, 60, LoadSort)
	if len(g.RunBlocks) >= 5 {
		t.Skip("seed produced too many runs for the clamp case")
	}
	res, err := SimulateMerge(g, simBase(5, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDisk) > len(g.RunBlocks) {
		t.Fatalf("%d disks for %d runs", len(res.PerDisk), len(g.RunBlocks))
	}
}

func TestSimulateMergeClampsN(t *testing.T) {
	// Runs of 16 blocks under N = 40: N must clamp to the longest run,
	// giving exactly the N = 16 result, with a default cache sized for
	// the clamped N.
	g := sortForSim(t, 15, 600, LoadSort)
	if longest := slices.Max(g.RunBlocks); longest != 16 {
		t.Fatalf("longest run %d blocks, want 16", longest)
	}
	for _, inter := range []bool{false, true} {
		deep, shallow := simBase(2, 40, inter), simBase(2, 16, inter)
		deep.CacheBlocks, shallow.CacheBlocks = 0, 0
		got, err := SimulateMerge(g, deep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SimulateMerge(g, shallow)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalTime != want.TotalTime {
			t.Fatalf("inter=%v: N=40 took %v, N=16 took %v", inter, got.TotalTime, want.TotalTime)
		}
	}
}

func TestMergeConfigClamps(t *testing.T) {
	// MergeConfig is the one place the clamps live: cmd/extsort prints
	// its D and N as the values the rows ran at.
	g := sortForSim(t, 15, 600, LoadSort)
	k := len(g.RunBlocks)
	base := simBase(k+3, 40, true)
	base.CacheBlocks = 0
	cfg, err := MergeConfig(g, base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != k || cfg.D != k || cfg.N != 16 || cfg.CacheBlocks != cfg.DefaultCache() {
		t.Fatalf("K=%d D=%d N=%d cache %d, want K=D=%d, N=16, cache %d",
			cfg.K, cfg.D, cfg.N, cfg.CacheBlocks, k, cfg.DefaultCache())
	}
	if _, err := MergeConfig(Group{}, base); err == nil {
		t.Fatal("an empty group was accepted")
	}
}
