package core

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedConfig is a small merge exercising every instrumented path:
// inter-run prefetching, a finite-speed CPU, output modelling on a
// separate write disk, and a degraded disk (slowdown + retries).
func tracedConfig() Config {
	cfg := Default()
	cfg.K = 6
	cfg.D = 3
	cfg.BlocksPerRun = 40
	cfg.N = 3
	cfg.InterRun = true
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.MergeTimePerBlock = 0.05
	cfg.Write = WriteConfig{Enabled: true, Disks: 1}
	cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{{
		Disk:          1,
		Slowdown:      1.5,
		SlowdownAtMs:  50,
		ReadErrorProb: 0.05,
	}}}
	cfg.Seed = 42
	return cfg
}

// runTraced runs one traced replication on a grid with the given worker
// count and returns the aggregate plus the Chrome export bytes.
func runTraced(t *testing.T, workers int) (Aggregate, []byte) {
	t.Helper()
	cfg := tracedConfig()
	cfg.Trace = trace.New(0)
	aggs, err := RunGrid([]Config{cfg}, 1, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if cfg.Trace.DiskSpans().Len() == 0 || cfg.Trace.CPUSpans().Len() == 0 ||
		cfg.Trace.PrefetchSpans().Len() == 0 || cfg.Trace.CacheSamples().Len() == 0 {
		t.Fatalf("span categories missing: disk=%d cpu=%d prefetch=%d cache=%d",
			cfg.Trace.DiskSpans().Len(), cfg.Trace.CPUSpans().Len(),
			cfg.Trace.PrefetchSpans().Len(), cfg.Trace.CacheSamples().Len())
	}
	return aggs[0], buf.Bytes()
}

// TestTraceByteIdentity pins the tentpole determinism guarantee: for a
// fixed config and seed the exported trace is byte-identical at any
// worker count (traced grids are forced serial, and the recorder sees
// kernel event order, which is a pure function of config and seed).
func TestTraceByteIdentity(t *testing.T) {
	agg1, trace1 := runTraced(t, 1)
	agg8, trace8 := runTraced(t, 8)
	if !bytes.Equal(trace1, trace8) {
		t.Fatalf("trace bytes differ across worker counts: %d vs %d bytes", len(trace1), len(trace8))
	}
	if agg1.Results[0].TotalTime != agg8.Results[0].TotalTime {
		t.Fatalf("results differ across worker counts: %v vs %v",
			agg1.Results[0].TotalTime, agg8.Results[0].TotalTime)
	}
}

// TestTraceIsObservationOnly asserts a traced run produces exactly the
// result of an untraced one, and that tracing does not perturb the
// config's canonical hash (the service result cache depends on both).
func TestTraceIsObservationOnly(t *testing.T) {
	plain := tracedConfig()
	res, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	traced := tracedConfig()
	traced.Trace = trace.New(0)
	tres, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != tres.TotalTime || res.StallTime != tres.StallTime ||
		res.Decisions != tres.Decisions || res.CachePeak != tres.CachePeak {
		t.Fatalf("traced result diverges: %+v vs %+v", res, tres)
	}
	ph, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	th, err := traced.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ph != th {
		t.Fatalf("Trace field leaked into the canonical hash: %s vs %s", ph, th)
	}
}

// TestTraceOutageSpan asserts an outage window surfaces as an outage
// phase span on the affected disk's track.
func TestTraceOutageSpan(t *testing.T) {
	cfg := tracedConfig()
	cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{{
		Disk:    0,
		Outages: []faults.Window{{StartMs: 0.5, EndMs: 30}},
	}}}
	cfg.Trace = trace.New(0)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for spans, i := cfg.Trace.DiskSpans(), 0; i < spans.Len(); i++ {
		if s := spans.At(i); s.Phase == trace.PhaseOutage {
			if got := cfg.Trace.TrackName(s.Track); got != "disk 0" {
				t.Fatalf("outage span on track %q, want disk 0", got)
			}
			return
		}
	}
	t.Fatal("no outage span recorded")
}

// TestTracerSeesMergeLifecycle checks the merge brackets its run with
// one proc-start and one proc-end mark on the recorder's CPU track, at
// time zero and at the makespan, including when the merge parks on
// writes and finite CPU time.
func TestTracerSeesMergeLifecycle(t *testing.T) {
	cfg := tracedConfig()
	cfg.Trace = trace.New(0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := map[string][]sim.Time{}
	for marks, i := cfg.Trace.Marks(), 0; i < marks.Len(); i++ {
		if m := marks.At(i); m.Track == trace.CPUTrack {
			at[m.Name] = append(at[m.Name], m.At)
		}
	}
	start, end := at["proc-start:cpu"], at["proc-end:cpu"]
	if len(start) != 1 || len(end) != 1 {
		t.Fatalf("CPU marks = %v, want one proc-start:cpu and one proc-end:cpu", at)
	}
	if start[0] != 0 || end[0] != res.TotalTime {
		t.Fatalf("lifecycle marks at %v..%v, want 0..%v", start[0], end[0], res.TotalTime)
	}
}

// TestGridRefusesSharedRecorder checks a traced config cannot run more
// than one trial: every replication would interleave its spans into the
// one recorder.
func TestGridRefusesSharedRecorder(t *testing.T) {
	cfg := tracedConfig()
	cfg.Trace = trace.New(0)
	if _, err := RunGrid([]Config{cfg}, 2, 1); err == nil {
		t.Fatal("RunGrid accepted a Trace recorder shared across 2 trials")
	}
	if _, err := RunTrials(cfg, 2); err == nil {
		t.Fatal("RunTrials accepted a Trace recorder shared across 2 trials")
	}
	if cfg.Trace.Len() != 0 {
		t.Fatalf("refused grid still recorded %d events", cfg.Trace.Len())
	}
}
