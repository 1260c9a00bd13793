package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the layer's public functions.
type span struct {
	Name   string
	Req    int64 // request id shared by the spans of one request; 0 = none
	Parent int   // index of the enclosing span, -1 for a root
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced twin of a replay runs the same code.
// Safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time, which is measured
// whether or not t records.
func (t *tracer) do(name string, parent int, req int64, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its child spans cover. Children that run concurrently are
// merged first, so overlapping children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// requestBreakdown is one request's traced latency split into the self
// time of each layer it passed through plus the residual: the root
// span's own self time, which no wrapped call accounts for.
type requestBreakdown struct {
	Latency  time.Duration
	Layers   map[string]time.Duration
	Residual time.Duration
}

// breakdowns splits every root span named root into its subtree's self
// times. The self times of one subtree sum to the root's duration
// exactly when no child escapes or overlaps its siblings; conservation
// checks that.
func breakdowns(spans []span, root string) []requestBreakdown {
	self := selfTimes(spans)
	byRoot := make(map[int]*requestBreakdown)
	var order []int
	top := func(i int) int {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	for i, s := range spans {
		r := top(i)
		if spans[r].Name != root {
			continue
		}
		b, ok := byRoot[r]
		if !ok {
			b = &requestBreakdown{Latency: spans[r].dur(), Layers: make(map[string]time.Duration)}
			byRoot[r] = b
			order = append(order, r)
		}
		if i == r {
			b.Residual = self[i]
		} else {
			b.Layers[s.Name] += self[i]
		}
	}
	sort.Ints(order)
	out := make([]requestBreakdown, len(order))
	for i, r := range order {
		out[i] = *byRoot[r]
	}
	return out
}

// conservation reports the first request whose layer self times plus
// residual miss its traced latency by more than tol (a fraction).
func conservation(bs []requestBreakdown, tol float64) error {
	for i, b := range bs {
		sum := b.Residual
		for _, d := range b.Layers {
			sum += d
		}
		diff := sum - b.Latency
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > tol*float64(b.Latency) {
			return fmt.Errorf("request %d: self times sum to %v, latency %v", i, sum, b.Latency)
		}
	}
	return nil
}

// writeChrome writes spans as a Chrome trace-event document: one
// complete ("X") event per span, one thread per request id.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Req,
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
