// Package hotalloc is the intentional-violation fixture for the
// hot-path allocation analyzer: a tagged dispatch root, a callee made
// hot by reachability, and the allocating constructs seeded inside it.
package hotalloc

import "fmt"

type request struct {
	start, count int
}

type state struct {
	pending []request
	handler func(request)
	log     log[request]
}

// log is a generic type: the walk enters its methods' generic bodies.
type log[T any] struct {
	entries []T
}

func (l *log[T]) add(v T) {
	l.entries = append(l.entries, v) // want `append \(may grow its backing array\) in add`
}

// dispatch stands in for the calendar pop loop: the root the analyzer
// walks from.
//
//detlint:hotpath
func dispatch(s *state, r request) {
	stage(s, r)
	trace(r)
	s.log.add(r) // a concrete argument for a type parameter: no boxing
	if s.handler != nil {
		s.handler(r) // dynamic call: the walk stops here
	}
}

// stage is hot by reachability, not by tag: the seeded closure the
// acceptance criteria call for lives here.
func stage(s *state, r request) {
	reset := func() { s.pending = s.pending[:0] } // want `closure allocation in stage, which is on the hot path rooted at dispatch`
	reset()
	s.pending = append(s.pending, r) // want `append \(may grow its backing array\) in stage`
	keep(spill(r))
}

func spill(r request) *request {
	if r.count < 0 {
		panic(fmt.Sprintf("negative count %d", r.count)) // a panic ends the hot path: not flagged
	}
	return &request{start: r.start} // want `heap-allocated composite literal in spill`
}

func keep(r *request) {}

func trace(r request) {
	fmt.Println("req", r.start) // want `fmt.Println \(interface boxing and formatting state\) in trace`
	sink(r.count)               // want `interface conversion of a concrete value \(boxes on the heap\) in trace`
}

func sink(v any) {}

// cold owns the same constructs but is unreachable from any root: no
// findings.
func cold(s *state) {
	s.handler = func(r request) {}
	s.pending = append(s.pending, request{})
	fmt.Println("cold")
}

// warmup documents a deliberate one-time allocation on a tagged root.
//
//detlint:hotpath
func warmup(s *state) {
	//detlint:allow hotalloc one-time warmup allocation, amortized over the whole run
	s.pending = make([]request, 0, 64)
}
