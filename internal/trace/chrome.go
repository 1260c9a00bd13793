package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the JSON-object form; see the Trace Event Format
// spec). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// usPerMs converts sim.Time (milliseconds) to trace-event microseconds.
const usPerMs = 1000.0

// WriteChrome exports the trace as Chrome trace-event JSON: one thread
// track per registered track (the CPU plus one per disk), "X" complete
// events for phase and CPU intervals, async "b"/"e" pairs for prefetch
// spans, and "C" counter series for cache occupancy and per-disk queue
// depth. The output loads
// directly into Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The byte stream is deterministic: events are emitted in record order,
// which is kernel event order, which is fixed by (config, seed).
func (r *Recorder) WriteChrome(w io.Writer) error {
	cw := &countingErrWriter{w: w}
	fmt.Fprintf(cw, `{"displayTimeUnit":"ms","otherData":{"events":%d,"truncated":%t},"traceEvents":[`,
		r.Len(), r.Truncated())

	enc := newEventEmitter(cw)
	emitChromeMetadata(enc, r)
	for spans, i := r.DiskSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		enc.emit(chromeEvent{
			Name: s.Phase.String(), Cat: "disk", Ph: "X",
			Ts: float64(s.Start) * usPerMs, Dur: float64(s.End-s.Start) * usPerMs,
			Tid: s.Track,
		})
	}
	for spans, i := r.CPUSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		ev := chromeEvent{
			Name: s.Kind.String(), Cat: "cpu", Ph: "X",
			Ts: float64(s.Start) * usPerMs, Dur: float64(s.End-s.Start) * usPerMs,
			Tid: CPUTrack,
		}
		if s.Kind == CPUStall && s.Run >= 0 {
			ev.Args = map[string]any{"run": s.Run}
		}
		enc.emit(ev)
	}
	for spans, i := r.PrefetchSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		enc.emit(chromeEvent{
			Name: "prefetch", Cat: "prefetch", Ph: "b",
			Ts: float64(s.Issued) * usPerMs, Tid: s.Track, ID: i + 1,
			Args: map[string]any{"run": s.Run, "blocks": s.Blocks, "disk": r.TrackName(s.Track)},
		})
		enc.emit(chromeEvent{
			Name: "prefetch", Cat: "prefetch", Ph: "e",
			Ts: float64(s.Done) * usPerMs, Tid: s.Track, ID: i + 1,
		})
	}
	for samples, i := r.CacheSamples(), 0; i < samples.Len(); i++ {
		s := samples.At(i)
		enc.emit(chromeEvent{
			Name: "cache occupancy", Ph: "C",
			Ts: float64(s.At) * usPerMs, Tid: CPUTrack,
			Args: map[string]any{"blocks": s.Occupied},
		})
	}
	for samples, i := r.QueueSamples(), 0; i < samples.Len(); i++ {
		s := samples.At(i)
		enc.emit(chromeEvent{
			Name: "queue depth", Ph: "C",
			Ts: float64(s.At) * usPerMs, Tid: s.Track,
			Args: map[string]any{"requests": s.Depth},
		})
	}
	for marks, i := r.Marks(), 0; i < marks.Len(); i++ {
		m := marks.At(i)
		enc.emit(chromeEvent{
			Name: m.Name, Cat: "mark", Ph: "i", Scope: "t",
			Ts: float64(m.At) * usPerMs, Tid: m.Track,
		})
	}
	if enc.err != nil {
		return enc.err
	}
	_, err := io.WriteString(cw, "]}\n")
	if err == nil {
		err = cw.err
	}
	return err
}

// emitChromeMetadata names the process and each registered track so
// Perfetto shows "cpu", "disk 0", ... instead of bare thread ids.
func emitChromeMetadata(enc *eventEmitter, r *Recorder) {
	enc.emit(chromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "mergesim"},
	})
	for id := 0; id < r.Tracks(); id++ {
		enc.emit(chromeEvent{
			Name: "thread_name", Ph: "M", Tid: id,
			Args: map[string]any{"name": r.TrackName(id)},
		})
		// Sort tracks by id: CPU on top, disks in order.
		enc.emit(chromeEvent{
			Name: "thread_sort_index", Ph: "M", Tid: id,
			Args: map[string]any{"sort_index": id},
		})
	}
}

// eventEmitter streams comma-separated JSON events, remembering the
// first encoding or write error.
type eventEmitter struct {
	w     io.Writer
	first bool
	err   error
}

func newEventEmitter(w io.Writer) *eventEmitter {
	return &eventEmitter{w: w, first: true}
}

func (e *eventEmitter) emit(ev chromeEvent) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		e.err = err
		return
	}
	if !e.first {
		if _, err := io.WriteString(e.w, ","); err != nil {
			e.err = err
			return
		}
	}
	e.first = false
	if _, err := e.w.Write(b); err != nil {
		e.err = err
	}
}

// countingErrWriter latches the first write error so export error
// handling happens once, at the end.
type countingErrWriter struct {
	w   io.Writer
	err error
}

func (c *countingErrWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return len(p), nil
	}
	n, err := c.w.Write(p)
	if err != nil {
		c.err = err
		return len(p), nil
	}
	return n, nil
}
