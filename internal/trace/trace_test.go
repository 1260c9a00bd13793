package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNilRecorderIsInert pins the zero-overhead contract: every method
// of a nil *Recorder is a no-op, so instrumentation sites never branch.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Track(0, "cpu")
	r.DiskPhase(1, PhaseSeek, 0, 1)
	r.CPUSpan(CPUStall, 0, 1)
	r.Prefetch(1, 0, 4, 0, 1)
	r.CacheSample(1, 3)
	r.Mark(0, "x", 2)
	if r.Len() != 0 || r.Truncated() || r.Tracks() != 0 {
		t.Fatalf("nil recorder accumulated state: len=%d truncated=%v", r.Len(), r.Truncated())
	}
	if got := r.TrackName(7); got != "track 7" {
		t.Fatalf("TrackName on nil = %q", got)
	}
}

func sample() *Recorder {
	r := New(0)
	r.Track(CPUTrack, "cpu")
	r.Track(1, "disk 0")
	r.Track(2, "disk 1")
	r.DiskPhase(1, PhaseSeek, 0, 2.5)
	r.DiskPhase(1, PhaseRotation, 2.5, 10)
	r.DiskPhase(1, PhaseTransfer, 10, 12)
	r.DiskPhase(2, PhaseRetry, 3, 4)
	r.CPUSpan(CPUStall, 0, 12)
	r.CPUSpan(CPUCompute, 12, 13)
	r.Prefetch(1, 3, 4, 0, 12)
	r.CacheSample(0, 0)
	r.CacheSample(12, 4)
	r.Mark(CPUTrack, "proc-start:cpu", 0)
	return r
}

func TestEventCapTruncates(t *testing.T) {
	r := New(3)
	for i := 0; i < 10; i++ {
		r.CacheSample(sim.Time(i), i)
	}
	if r.Len() != 3 || !r.Truncated() {
		t.Fatalf("len=%d truncated=%v, want 3/true", r.Len(), r.Truncated())
	}
	if got := len(r.CacheSamples()); got != 3 {
		t.Fatalf("kept %d samples, want 3", got)
	}
}

func TestEmptySpansDropped(t *testing.T) {
	r := New(0)
	r.DiskPhase(1, PhaseSeek, 5, 5) // zero-length: a 0-cylinder seek
	r.CPUSpan(CPUStall, 7, 6)       // non-positive
	if r.Len() != 0 {
		t.Fatalf("recorded %d events from empty spans", r.Len())
	}
}

// TestWriteChromeParses loads the export back through encoding/json and
// checks the shape Perfetto depends on: a traceEvents array of objects
// with ph/ts fields, thread-name metadata for every track, and
// microsecond timestamps.
func TestWriteChromeParses(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Events    int  `json:"events"`
			Truncated bool `json:"truncated"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || doc.OtherData.Truncated {
		t.Fatalf("header = %+v", doc)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var names, phases []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			names = append(names, ev.Name)
		}
		if ev.Ph == "X" {
			phases = append(phases, ev.Name)
		}
	}
	if len(names) != 3 {
		t.Fatalf("%d thread_name metadata events, want 3", len(names))
	}
	joined := strings.Join(phases, ",")
	for _, want := range []string{"seek", "rotation", "transfer", "retry", "stall", "compute"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("X events %q missing %q", joined, want)
		}
	}
	// 2.5 ms seek end → 2500 µs.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "seek" && ev.Dur > 2499 && ev.Dur < 2501 {
			found = true
		}
	}
	if !found {
		t.Fatal("seek span not in microseconds")
	}
}

func TestWriteCSVSortedByStart(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "kind,track,name,start_ms,end_ms,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+sample().Len() {
		t.Fatalf("%d rows for %d events", len(lines)-1, sample().Len())
	}
	prev := -1.0
	for _, ln := range lines[1:] {
		f := strings.Split(ln, ",")
		var start float64
		if err := json.Unmarshal([]byte(f[3]), &start); err != nil {
			t.Fatalf("bad start_ms %q: %v", f[3], err)
		}
		if start < prev {
			t.Fatalf("rows out of order: %g after %g", start, prev)
		}
		prev = start
	}
}

// TestExportDeterminism pins byte-identical exports for identically
// recorded traces — the property the engine-level byte-identity test
// builds on.
func TestExportDeterminism(t *testing.T) {
	var a, b, ca, cb bytes.Buffer
	if err := sample().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := sample().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export is not deterministic")
	}
	if err := sample().WriteCSV(&ca); err != nil {
		t.Fatal(err)
	}
	if err := sample().WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("csv export is not deterministic")
	}
}
