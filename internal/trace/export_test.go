package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// exportRecorder hand-builds a small, fully known trace covering every
// row kind the exporters emit.
func exportRecorder() *Recorder {
	r := New(0)
	r.Track(CPUTrack, "cpu")
	r.Track(1, "disk 0")
	r.Track(2, "disk 1")
	r.DiskPhase(1, PhaseSeek, 0, 2)
	r.DiskPhase(1, PhaseRotation, 2, 5)
	r.DiskPhase(1, PhaseTransfer, 5, 9)
	r.DiskPhase(2, PhaseRetry, 3, 4)
	r.DiskPhase(2, PhaseOutage, 10, 12)
	r.CPUSpan(CPUCompute, 9, 10)
	r.CPUSpan(CPUStall, 0, 9)    // initial load: no run identity
	r.CPUStallOn(3, 10.5, 12.25) // demand stall on run 3
	r.Prefetch(1, 3, 4, 0.5, 9)  // the fetch that stall waited on
	r.CacheSample(0, 0)
	r.CacheSample(9, 4)
	r.QueueSample(1, 0.5, 1)
	r.QueueSample(1, 0.75, 0)
	r.Mark(CPUTrack, "merge:start", 0)
	return r
}

// TestWriteCSVGolden pins the CSV exporter byte for byte: the header,
// the row schema, chronological order, the run id in a stall row's
// value column, and queue-depth rows.
func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := exportRecorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"kind,track,name,start_ms,end_ms,value",
		"disk,disk 0,seek,0,2,",
		"cpu,cpu,stall,0,9,",
		"cache,cache,occupancy,0,0,0",
		"mark,cpu,merge:start,0,0,",
		"prefetch,disk 0,run 3,0.5,9,4",
		"queue,disk 0,depth,0.5,0.5,1",
		"queue,disk 0,depth,0.75,0.75,0",
		"disk,disk 0,rotation,2,5,",
		"disk,disk 1,retry,3,4,",
		"disk,disk 0,transfer,5,9,",
		"cpu,cpu,compute,9,10,",
		"cache,cache,occupancy,9,9,4",
		"disk,disk 1,outage,10,12,",
		"cpu,cpu,stall,10.5,12.25,3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("CSV golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteCSVTruncatedSentinel: a capped recorder appends the
// TruncatedMark row, and ReadCSV restores the flag from it.
func TestWriteCSVTruncatedSentinel(t *testing.T) {
	r := New(2)
	r.Track(CPUTrack, "cpu")
	r.CPUSpan(CPUCompute, 0, 1)
	r.CPUSpan(CPUCompute, 1, 2)
	r.CPUSpan(CPUCompute, 2, 3) // dropped
	if !r.Truncated() {
		t.Fatal("cap of 2 did not truncate 3 events")
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), TruncatedMark) {
		t.Fatalf("truncated export missing sentinel:\n%s", buf.String())
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Truncated() {
		t.Fatal("ReadCSV lost the truncated flag")
	}
	if back.CPUSpans().Len() != 2 {
		t.Fatalf("roundtrip span count = %d, want 2", back.CPUSpans().Len())
	}
}

// TestReadCSVRoundtrip: every span category survives a CSV write/read
// cycle with values intact.
func TestReadCSVRoundtrip(t *testing.T) {
	orig := exportRecorder()
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("CSV not a fixed point of write→read→write:\nfirst:\n%s\nsecond:\n%s", buf.String(), buf2.String())
	}
	if back.DiskSpans().Len() != orig.DiskSpans().Len() ||
		back.CPUSpans().Len() != orig.CPUSpans().Len() ||
		back.PrefetchSpans().Len() != orig.PrefetchSpans().Len() ||
		back.CacheSamples().Len() != orig.CacheSamples().Len() ||
		back.QueueSamples().Len() != orig.QueueSamples().Len() ||
		back.Marks().Len() != orig.Marks().Len() {
		t.Fatal("roundtrip changed span counts")
	}
	// The stall's run identity must survive (the explain layer keys
	// attribution on it).
	found := false
	for spans, i := back.CPUSpans(), 0; i < spans.Len(); i++ {
		if s := spans.At(i); s.Kind == CPUStall && s.Run == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("roundtrip lost the stall's run identity")
	}
}

// TestWriteChromeSchema validates the Perfetto/Chrome trace-event
// document shape: the envelope keys, per-event required fields, legal
// phase codes, b/e async pairing, and metadata naming every track.
func TestWriteChromeSchema(t *testing.T) {
	r := exportRecorder()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Events    int  `json:"events"`
			Truncated bool `json:"truncated"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if doc.OtherData.Events != r.Len() || doc.OtherData.Truncated {
		t.Fatalf("otherData wrong: %+v", doc.OtherData)
	}
	legal := map[string]bool{"X": true, "b": true, "e": true, "C": true, "i": true, "M": true}
	named := map[int]bool{}
	var begins, ends int
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if !legal[ev.Ph] {
			t.Fatalf("event %d has illegal phase %q", i, ev.Ph)
		}
		if ev.Ph != "M" && ev.Ts == nil {
			t.Fatalf("event %d (%s) has no timestamp", i, ev.Ph)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" && ev.Tid != nil {
				named[*ev.Tid] = true
			}
		case "b":
			begins++
		case "e":
			ends++
		}
	}
	if begins != r.PrefetchSpans().Len() || begins != ends {
		t.Fatalf("async pairing broken: %d begins, %d ends, %d prefetches",
			begins, ends, r.PrefetchSpans().Len())
	}
	for id := 0; id < r.Tracks(); id++ {
		if !named[id] {
			t.Fatalf("track %d has no thread_name metadata", id)
		}
	}
	// The demand stall carries its blocking run; queue samples appear
	// as counter series.
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"stall","cat":"cpu","ph":"X","ts":10500,"dur":1750,"pid":0,"tid":0,"args":{"run":3}`)) {
		t.Fatalf("stall event lost its run arg:\n%s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"queue depth"`)) {
		t.Fatalf("queue counter series missing:\n%s", buf.String())
	}
}
