package trace

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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
	if n := r.DiskSpans().Len() + r.CPUSpans().Len() + r.PrefetchSpans().Len() +
		r.CacheSamples().Len() + r.QueueSamples().Len() + r.Marks().Len(); n != 0 {
		t.Fatalf("nil recorder's views hold %d events", n)
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
	if got := r.CacheSamples().Len(); got != 3 {
		t.Fatalf("kept %d samples, want 3", got)
	}
}

// recordRounds records rounds rounds of one event of every kind, in a
// fixed kind order; each event carries its round i in its fields.
func recordRounds(r *Recorder, rounds int) {
	for i := 0; i < rounds; i++ {
		at := sim.Time(i)
		r.DiskPhase(i, Phase(i%5), at, at+1)
		if i%2 == 0 {
			r.CPUSpan(CPUCompute, at, at+1)
		} else {
			r.CPUStallOn(i, at, at+1)
		}
		r.Prefetch(i, i, i%7+1, at, at+2)
		r.CacheSample(at, i)
		r.QueueSample(i, at, i%4)
		r.Mark(i, "mark", at)
	}
}

// checkRounds requires each view of r to hold exactly the first n[k]
// events recordRounds gives kind k, in record order.
func checkRounds(t *testing.T, r *Recorder, n [6]int) {
	t.Helper()
	checkEvents(t, "disk", r.DiskSpans(), n[0], func(i int) DiskSpan {
		return DiskSpan{Track: i, Phase: Phase(i % 5), Start: sim.Time(i), End: sim.Time(i + 1)}
	})
	checkEvents(t, "cpu", r.CPUSpans(), n[1], func(i int) CPUSpan {
		if i%2 == 0 {
			return CPUSpan{Kind: CPUCompute, Run: -1, Start: sim.Time(i), End: sim.Time(i + 1)}
		}
		return CPUSpan{Kind: CPUStall, Run: i, Start: sim.Time(i), End: sim.Time(i + 1)}
	})
	checkEvents(t, "prefetch", r.PrefetchSpans(), n[2], func(i int) PrefetchSpan {
		return PrefetchSpan{Track: i, Run: i, Blocks: i%7 + 1, Issued: sim.Time(i), Done: sim.Time(i + 2)}
	})
	checkEvents(t, "cache", r.CacheSamples(), n[3], func(i int) CacheSample {
		return CacheSample{At: sim.Time(i), Occupied: i}
	})
	checkEvents(t, "queue", r.QueueSamples(), n[4], func(i int) QueueSample {
		return QueueSample{Track: i, At: sim.Time(i), Depth: i % 4}
	})
	checkEvents(t, "mark", r.Marks(), n[5], func(i int) Mark {
		return Mark{Track: i, Name: "mark", At: sim.Time(i)}
	})
}

func checkEvents[T comparable](t *testing.T, kind string, e Events[T], n int, want func(int) T) {
	t.Helper()
	if e.Len() != n {
		t.Fatalf("%s view holds %d events, want %d", kind, e.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := e.At(i); got != want(i) {
			t.Fatalf("%s event %d = %+v, want %+v", kind, i, got, want(i))
		}
	}
	for _, i := range []int{-1, n} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: At(%d) of %d events did not panic", kind, i, n)
				}
			}()
			e.At(i)
		}()
	}
}

// TestEventsReadBackAcrossChunks records three chunks and one entry of
// every kind and reads each back in record order.
func TestEventsReadBackAcrossChunks(t *testing.T) {
	const rounds = 3*chunkSize + 1
	r := New(0)
	recordRounds(r, rounds)
	if r.Len() != 6*rounds || r.Truncated() {
		t.Fatalf("len=%d truncated=%v, want %d/false", r.Len(), r.Truncated(), 6*rounds)
	}
	checkRounds(t, r, [6]int{rounds, rounds, rounds, rounds, rounds, rounds})
}

// TestEventsViewIsASnapshot takes a view while recording and checks it
// keeps its length and entries as the log grows past it: through the
// first chunk's regrowth and into later chunks.
func TestEventsViewIsASnapshot(t *testing.T) {
	r := New(0)
	recordRounds(r, 100)
	early := r.CacheSamples()
	for i := 100; i < 3*chunkSize; i++ {
		r.CacheSample(sim.Time(i), i)
	}
	checkEvents(t, "early cache", early, 100, func(i int) CacheSample {
		return CacheSample{At: sim.Time(i), Occupied: i}
	})
}

// TestEventCapTruncatesMidChunk caps a recorder partway through a round
// that falls inside each kind's third chunk: the first three kinds keep
// one event more than the last three.
func TestEventCapTruncatesMidChunk(t *testing.T) {
	const kept = 2*chunkSize + 100
	r := New(6*kept + 3)
	recordRounds(r, kept+50)
	if r.Len() != 6*kept+3 || !r.Truncated() {
		t.Fatalf("len=%d truncated=%v, want %d/true", r.Len(), r.Truncated(), 6*kept+3)
	}
	checkRounds(t, r, [6]int{kept + 1, kept + 1, kept + 1, kept, kept, kept})
}

// appendAllocs is the number of allocations appending n values of T to
// a nil slice one at a time makes: one per growth of its capacity.
func appendAllocs[T any](n int) int {
	var s []T
	var zero T
	allocs := 0
	for i := 0; i < n; i++ {
		if len(s) == cap(s) {
			allocs++
		}
		s = append(s, zero)
	}
	return allocs
}

// TestEventsAllocateByChunk pins the storage's allocations: a kind's
// first chunk grows by append, each later chunk is one allocation and
// the chunk list grows by append, and no full chunk is ever copied, so
// the bytes allocated stay within three chunks of the bytes recorded.
func TestEventsAllocateByChunk(t *testing.T) {
	const chunks = 64
	const n = chunks * chunkSize
	record := func() {
		r := New(0)
		for i := 0; i < n; i++ {
			r.CacheSample(sim.Time(i), i)
		}
	}
	runtime.GC() // the process's first collection allocates for itself
	// The chunk list's first entry has a slot in the recorder.
	want := 1 + appendAllocs[CacheSample](chunkSize) + (chunks - 1) + appendAllocs[[]CacheSample](chunks) - 1
	// The runtime may add an allocation of its own to a run.
	if got := testing.AllocsPerRun(20, record); got < float64(want) || got > float64(want+2) {
		t.Errorf("recording %d cache samples took %v allocations, want %d", n, got, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record()
	runtime.ReadMemStats(&after)
	size := uint64(unsafe.Sizeof(CacheSample{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, (n+3*chunkSize)*size; got > limit {
		t.Errorf("recording %d cache samples (%d bytes) allocated %d bytes, want at most %d",
			n, n*size, got, limit)
	}
}

// TestSmallTraceAllocatesAsAppend checks that a trace of fewer events
// of each kind than one chunk holds allocates no more than appending
// every kind to its own slice would.
func TestSmallTraceAllocatesAsAppend(t *testing.T) {
	runtime.GC() // the process's first collection allocates for itself
	for _, rounds := range []int{1, 100, chunkSize} {
		want := 1 + appendAllocs[DiskSpan](rounds) + appendAllocs[CPUSpan](rounds) +
			appendAllocs[PrefetchSpan](rounds) + appendAllocs[CacheSample](rounds) +
			appendAllocs[QueueSample](rounds) + appendAllocs[Mark](rounds)
		got := testing.AllocsPerRun(20, func() { recordRounds(New(0), rounds) })
		if got > float64(want) {
			t.Errorf("%d rounds: %v allocations, want at most %d", rounds, got, want)
		}
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
