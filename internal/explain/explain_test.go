package explain_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runTraced executes one traced replication and returns the result with
// its recorder.
func runTraced(t *testing.T, cfg core.Config, workers int) (core.Result, *trace.Recorder) {
	t.Helper()
	cfg.Trace = trace.New(0)
	aggs, err := core.RunGrid([]core.Config{cfg}, 1, workers)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	return aggs[0].Results[0], cfg.Trace
}

// TestConservationMatrix replays the engine config matrix and demands
// the conservation invariant on each point: the report's per-disk and
// CPU decompositions tile the makespan and the attributed stall total
// equals Result.StallTime.
func TestConservationMatrix(t *testing.T) {
	for _, c := range coretest.Matrix() {
		t.Run(c.Name, func(t *testing.T) {
			res, rec := runTraced(t, c.Config, 1)
			rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
			if err := rep.Check(res.StallTime); err != nil {
				t.Fatal(err)
			}
			if len(rep.Disks) == 0 {
				t.Fatal("report has no disks")
			}
			for _, d := range rep.Disks {
				if d.Utilization <= 0 {
					t.Fatalf("disk %s has zero utilization", d.Name)
				}
			}
		})
	}
}

// TestAttributionCoversStalls requires the blocking-fetch cascade to
// explain every demand stall on the matrix: unattributed time means the
// join logic lost a span, not that the system behaved unusually.
func TestAttributionCoversStalls(t *testing.T) {
	for _, c := range coretest.Matrix() {
		t.Run(c.Name, func(t *testing.T) {
			res, rec := runTraced(t, c.Config, 1)
			rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
			if rep.Stall.Unattributed != 0 {
				t.Fatalf("unattributed stall %v of total %v", rep.Stall.Unattributed, rep.Stall.Total)
			}
			if rep.Stall.Total > 0 && len(rep.Chains) == 0 {
				t.Fatal("stalls present but no chains extracted")
			}
		})
	}
}

// TestReportByteIdentityAcrossWorkers pins determinism end to end: the
// marshaled report from a workers=1 grid equals the workers=8 one.
func TestReportByteIdentityAcrossWorkers(t *testing.T) {
	cfg := tracedConfig()
	build := func(workers int) []byte {
		res, rec := runTraced(t, cfg, workers)
		rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	b1, b8 := build(1), build(8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("report bytes differ across worker counts:\n1: %s\n8: %s", b1, b8)
	}
}

// tracedConfig exercises every instrumented path: inter-run prefetch, a
// finite CPU, separate write disks, and a degraded disk.
func tracedConfig() core.Config {
	cfg := core.Default()
	cfg.K = 6
	cfg.D = 3
	cfg.BlocksPerRun = 40
	cfg.N = 3
	cfg.InterRun = true
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.MergeTimePerBlock = 0.05
	cfg.Write = core.WriteConfig{Enabled: true, Disks: 1}
	cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{{
		Disk:          1,
		Slowdown:      1.5,
		SlowdownAtMs:  50,
		ReadErrorProb: 0.05,
	}}}
	cfg.Seed = 42
	return cfg
}

// TestDiskSpansTileBusyTime is the invariant explain leans on: per
// track, phase spans never overlap, and the non-outage span lengths sum
// to the disk's accumulated Stats.BusyTime.
func TestDiskSpansTileBusyTime(t *testing.T) {
	for _, c := range coretest.Matrix() {
		t.Run(c.Name, func(t *testing.T) {
			res, rec := runTraced(t, c.Config, 1)
			byTrack := map[int][]trace.DiskSpan{}
			for spans, i := rec.DiskSpans(), 0; i < spans.Len(); i++ {
				s := spans.At(i)
				byTrack[s.Track] = append(byTrack[s.Track], s)
			}
			busyOf := map[int]sim.Time{}
			for _, track := range sortedKeys(byTrack) {
				spans := byTrack[track]
				sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
				var busy sim.Time
				for i, s := range spans {
					if s.End <= s.Start {
						t.Fatalf("track %d: empty span %+v", track, s)
					}
					// Adjacent requests abut exactly in simulated time, but
					// the next dispatch instant is computed as now+total
					// while the previous span's end accumulated phase by
					// phase — the two differ in the last float bits, so
					// "never overlap" holds up to association jitter.
					if i > 0 {
						jitter := sim.Time(1e-9 * float64(spans[i-1].End))
						if s.Start < spans[i-1].End-jitter {
							t.Fatalf("track %d: span %d overlaps predecessor: %+v after %+v",
								track, i, s, spans[i-1])
						}
					}
					if s.Phase != trace.PhaseOutage {
						busy += s.End - s.Start
					}
				}
				busyOf[track] = busy
			}
			for d, st := range res.PerDisk {
				requireBusyMatch(t, rec.TrackName(trace.CPUTrack+1+d), busyOf[trace.CPUTrack+1+d], st.BusyTime)
			}
			for i, st := range res.PerWriteDisk {
				track := trace.CPUTrack + 1 + len(res.PerDisk) + i
				requireBusyMatch(t, rec.TrackName(track), busyOf[track], st.BusyTime)
			}
		})
	}
}

func requireBusyMatch(t *testing.T, name string, spanBusy, statsBusy sim.Time) {
	t.Helper()
	diff := spanBusy - statsBusy
	if diff < 0 {
		diff = -diff
	}
	tol := explain.Epsilon + sim.Time(1e-9*float64(statsBusy))
	if diff > tol {
		t.Fatalf("%s: span busy %v != stats busy %v (Δ %v)", name, spanBusy, statsBusy, diff)
	}
}

func sortedKeys(m map[int][]trace.DiskSpan) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TestCSVRoundtripReport pins traceq's file mode: a report built from a
// WriteCSV→ReadCSV roundtrip matches the live-recorder report byte for
// byte.
func TestCSVRoundtripReport(t *testing.T) {
	res, rec := runTraced(t, tracedConfig(), 1)
	opts := explain.Options{Makespan: res.TotalTime}
	live, err := json.Marshal(explain.Build(rec, opts))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := json.Marshal(explain.Build(loaded, opts))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, reloaded) {
		t.Fatalf("report changed across CSV roundtrip:\nlive:     %s\nreloaded: %s", live, reloaded)
	}
}

// TestTruncatedReportFailsCheck: a capped trace must refuse to
// masquerade as a complete attribution.
func TestTruncatedReportFailsCheck(t *testing.T) {
	cfg := tracedConfig()
	cfg.Trace = trace.New(50)
	aggs, err := core.RunGrid([]core.Config{cfg}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Trace.Truncated() {
		t.Fatal("tiny cap did not truncate")
	}
	rep := explain.Build(cfg.Trace, explain.Options{Makespan: aggs[0].Results[0].TotalTime})
	if !rep.Truncated {
		t.Fatal("report did not propagate truncation")
	}
	if err := rep.Check(aggs[0].Results[0].StallTime); err == nil {
		t.Fatal("Check accepted a truncated trace")
	}
}

// TestWriteTextAndSVG smoke-checks the renderers on a real trace.
func TestWriteTextAndSVG(t *testing.T) {
	res, rec := runTraced(t, tracedConfig(), 1)
	rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
	var txt, svg bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(txt.Bytes(), []byte("stall attribution")) {
		t.Fatalf("text report missing sections:\n%s", txt.String())
	}
	if err := explain.WriteTimelineSVG(&svg, rec, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(svg.Bytes(), []byte("<svg ")) || !bytes.Contains(svg.Bytes(), []byte("</svg>")) {
		t.Fatal("timeline is not an SVG document")
	}
}
