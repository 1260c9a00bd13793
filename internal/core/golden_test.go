package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The goldens are the engine's specification: any change to what a
// merge computes, records, or submits shows up here as a named diff.
// A deliberate model change updates the testdata line the failure
// prints.

// TestGoldenMatrix pins the ResultJSON of two trials on every point of
// the config matrix, verbatim.
func TestGoldenMatrix(t *testing.T) {
	g := coretest.LoadGolden(t, "testdata/matrix.golden")
	for _, c := range coretest.Matrix() {
		t.Run(c.Name, func(t *testing.T) {
			agg, err := core.RunTrials(c.Config, 2)
			if err != nil {
				t.Fatalf("RunTrials: %v", err)
			}
			b, err := json.Marshal(core.NewResultJSON(agg))
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			g.Check(t, c.Name, string(b))
		})
	}
	g.Done(t)
}

// TestGoldenTrace pins the Chrome and CSV exports of one traced,
// fault-injected, writing merge: every span and lifecycle mark at its
// instant. The "explain" entries pin a paper-scale trace (k=25, D=5,
// N=10, inter-run, cache 300, merge 0.3 ms; about 101k events), large
// enough that every event kind spans many of the recorder's storage
// chunks; the small merge fills less than one chunk of any kind.
func TestGoldenTrace(t *testing.T) {
	small := core.Default()
	small.K, small.D, small.BlocksPerRun = 6, 3, 50
	small.N = 3
	small.InterRun = true
	small.MergeTimePerBlock = sim.Ms(0.3)
	small.Write = core.WriteConfig{Enabled: true, Disks: 1, BatchBlocks: 3, BufferBlocks: 9}
	small.Faults = &faults.Spec{Disks: []faults.DiskSpec{
		{Disk: 1, Slowdown: 2, SlowdownAtMs: 100, Outages: []faults.Window{{StartMs: 50, EndMs: 250}}},
	}}
	small.CacheBlocks = small.DefaultCache()

	paper := core.Default()
	paper.N = 10
	paper.InterRun = true
	paper.CacheBlocks = 300
	paper.MergeTimePerBlock = sim.Ms(0.3)

	g := coretest.LoadGolden(t, "testdata/trace.golden")
	for _, c := range []struct {
		prefix string
		cfg    core.Config
	}{{"", small}, {"explain-", paper}} {
		cfg := c.cfg
		cfg.Trace = trace.New(0)
		if _, err := core.Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var chrome, csv bytes.Buffer
		if err := cfg.Trace.WriteChrome(&chrome); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if err := cfg.Trace.WriteCSV(&csv); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		g.Check(t, c.prefix+"chrome", coretest.Digest(chrome.Bytes()))
		g.Check(t, c.prefix+"csv", coretest.Digest(csv.Bytes()))
	}
	g.Done(t)
}

// TestGoldenRequestLog pins the dispatch-level request stream record
// for record, which fixes queue arrival order and each request's
// service decomposition.
func TestGoldenRequestLog(t *testing.T) {
	cfg := core.Default()
	cfg.K, cfg.D, cfg.BlocksPerRun = 6, 3, 40
	cfg.N = 3
	cfg.InterRun = true
	cfg.Write = core.WriteConfig{Enabled: true, Shared: true}
	cfg.CacheBlocks = cfg.DefaultCache()
	var log bytes.Buffer
	cfg.OnRequest = func(rt disk.RequestTrace) {
		fmt.Fprintf(&log, "%+v\n", rt)
	}
	if _, err := core.Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	g := coretest.LoadGolden(t, "testdata/reqlog.golden")
	g.Check(t, "requests", coretest.Digest(log.Bytes()))
	g.Done(t)
}
