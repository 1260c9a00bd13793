// Package trace records what a simulated merge did, in simulated time,
// at event granularity: per-disk busy segments decomposed into their
// mechanical phases (seek, rotation, fault-retry, transfer, outage),
// CPU compute and stall intervals, prefetch issue→complete spans, and
// cache-occupancy samples.
//
// The Recorder is deliberately passive — it observes the engine and the
// disk model but never feeds back into them — so attaching one cannot
// change a simulation's outcome, and a traced run produces exactly the
// result bytes of an untraced run. Every recording method is safe on a
// nil receiver and returns immediately, which is what makes the
// instrumentation zero-overhead when tracing is off: call sites pass
// the (possibly nil) recorder unconditionally instead of branching.
//
// Timestamps are sim.Time (simulated milliseconds) only. Nothing in
// this package reads a wall clock, so a trace is a pure function of
// (config, seed): byte-identical across runs and worker counts.
//
// Exporters: WriteChrome emits Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing), WriteCSV a flat time-series.
package trace

import (
	"strconv"

	"repro/internal/sim"
)

// DefaultMaxEvents bounds a Recorder when the caller passes no cap: a
// full trace of the paper's headline configuration (25 runs × 1000
// blocks on 5 disks) stays well inside it.
const DefaultMaxEvents = 1 << 20

// Phase is one component of a disk's busy time, in the order the disk
// model spends them on a dispatched request.
type Phase uint8

const (
	// PhaseSeek is arm travel to the target cylinder.
	PhaseSeek Phase = iota
	// PhaseRotation is rotational latency to the target sector.
	PhaseRotation
	// PhaseRetry is re-read time recovering transient read errors
	// (fault layer); zero-length on healthy disks.
	PhaseRetry
	// PhaseTransfer is the block transfer itself.
	PhaseTransfer
	// PhaseOutage is dispatch time lost waiting out an outage window
	// (fault layer); the disk is down, not busy.
	PhaseOutage
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseSeek:
		return "seek"
	case PhaseRotation:
		return "rotation"
	case PhaseRetry:
		return "retry"
	case PhaseTransfer:
		return "transfer"
	case PhaseOutage:
		return "outage"
	default:
		return "phase?"
	}
}

// CPUKind classifies a CPU interval.
type CPUKind uint8

const (
	// CPUCompute is merge work (MergeTimePerBlock > 0).
	CPUCompute CPUKind = iota
	// CPUStall is the CPU blocked waiting for a block to arrive.
	CPUStall
)

// String implements fmt.Stringer.
func (k CPUKind) String() string {
	if k == CPUCompute {
		return "compute"
	}
	return "stall"
}

// DiskSpan is one phase interval on one disk track.
type DiskSpan struct {
	Track int
	Phase Phase
	Start sim.Time
	End   sim.Time
}

// CPUSpan is one compute or stall interval of the merge CPU. Run
// identifies the demand run the CPU was blocked on for stall spans
// recorded through CPUStallOn; it is -1 for compute spans and for
// stalls with no single blocking run (the initial load waits on every
// run at once).
type CPUSpan struct {
	Kind  CPUKind
	Run   int
	Start sim.Time
	End   sim.Time
}

// PrefetchSpan is one fetch request from issue to its last block
// landing in the cache.
type PrefetchSpan struct {
	Track  int // disk track serving the fetch
	Run    int // run the fetch serves
	Blocks int // blocks in this extent
	Issued sim.Time
	Done   sim.Time
}

// CacheSample is the cache occupancy (resident + reserved blocks) at
// one instant; samples are taken on every occupancy change.
type CacheSample struct {
	At       sim.Time
	Occupied int
}

// QueueSample is one disk's queue depth (requests waiting, excluding
// the one in service) at one instant; samples are taken on every
// enqueue and every dispatch, so the series is a complete step
// function of the queue's evolution.
type QueueSample struct {
	Track int
	At    sim.Time
	Depth int
}

// Mark is one named instant event on a track (process starts, fault
// transitions, ...).
type Mark struct {
	Track int
	Name  string
	At    sim.Time
}

// CPUTrack is the track id of the merge CPU; disk tracks are assigned
// by the engine starting at CPUTrack+1.
const CPUTrack = 0

// chunkSize is the number of entries in one storage chunk of an event
// kind's log.
const chunkSize = 1024

// Events is a read-only view of one event kind's log, read in record
// order with Len and At. A view returned by a Recorder accessor reads
// the recorder's storage in place; events recorded after it was taken
// are not in it.
//
// The log is an append-only list of chunks of chunkSize entries. The
// first chunk grows by append up to chunkSize, so a small trace stays
// small; each later chunk is allocated whole. A full chunk is never
// copied or regrown, so recording n events copies at most the first
// chunk's entries, however large n gets. A view is a chunk list and a
// count, four words that stay in registers, so At costs about two
// slice indexings.
type Events[T any] struct {
	chunks [][]T // in record order; only the last may be short
	n      int
}

// Len returns the number of events in the view.
func (e Events[T]) Len() int { return e.n }

// At returns the i-th event in record order; it panics if i is out of
// range, as indexing a slice does.
func (e Events[T]) At(i int) T {
	if uint(i) >= uint(e.n) {
		panic("trace: event index out of range")
	}
	return e.chunks[uint(i)/chunkSize][uint(i)%chunkSize]
}

// events is one event kind's log. first is the chunk list's first
// slot, so a kind with fewer than chunkSize events allocates only its
// first chunk, growing as a plain appended slice would.
type events[T any] struct {
	Events[T]
	first [1][]T
}

// add appends v.
func (e *events[T]) add(v T) {
	switch {
	case e.chunks == nil:
		e.chunks = e.first[:]
	case len(e.chunks[len(e.chunks)-1]) == chunkSize:
		//detlint:allow hotalloc tracing-enabled runs only; the zero-alloc path carries a nil recorder
		e.chunks = append(e.chunks, make([]T, 0, chunkSize))
	}
	last := &e.chunks[len(e.chunks)-1]
	//detlint:allow hotalloc tracing-enabled runs only; the zero-alloc path carries a nil recorder
	*last = append(*last, v)
	e.n++
}

// Recorder accumulates trace events. The zero value is not usable —
// construct with New — but a nil *Recorder is: every method no-ops, so
// callers thread one recorder pointer through unconditionally.
//
// A Recorder is not safe for concurrent use; the engine touches it only
// from kernel context, which is single-threaded per run (and
// core.RunGrid forces traced grids serial, exactly as it does for
// OnRequest callbacks). It observes one run: core.RunGrid refuses a
// traced config with more than one trial.
//
// All fields are unexported: a Recorder carries observations, never
// configuration, so it contributes nothing to core.Config's canonical
// encoding — a traced config hashes identically to an untraced one,
// which is what keeps traced requests compatible with the simd result
// cache.
type Recorder struct {
	max       int
	events    int
	truncated bool

	tracks   []string // index = track id; "" = unregistered
	disk     events[DiskSpan]
	cpu      events[CPUSpan]
	prefetch events[PrefetchSpan]
	cache    events[CacheSample]
	queue    events[QueueSample]
	marks    events[Mark]
}

// New returns a Recorder holding at most maxEvents events (<= 0 means
// DefaultMaxEvents). Past the cap, events are dropped and Truncated
// reports true — a bounded trace beats an unbounded allocation.
func New(maxEvents int) *Recorder {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Recorder{max: maxEvents}
}

// admit charges one event against the cap.
func (r *Recorder) admit() bool {
	if r.events >= r.max {
		r.truncated = true
		return false
	}
	r.events++
	return true
}

// Track names a track id for the exporters ("cpu", "disk 3", ...).
// Registration is idempotent and does not count against the event cap.
func (r *Recorder) Track(id int, name string) {
	if r == nil || id < 0 {
		return
	}
	for id >= len(r.tracks) {
		r.tracks = append(r.tracks, "")
	}
	r.tracks[id] = name
}

// DiskPhase records one phase interval on a disk track. Empty intervals
// are dropped (a zero-cylinder seek spends no time).
func (r *Recorder) DiskPhase(track int, phase Phase, start, end sim.Time) {
	if r == nil || end <= start || !r.admit() {
		return
	}
	r.disk.add(DiskSpan{Track: track, Phase: phase, Start: start, End: end})
}

// CPUSpan records one compute or stall interval with no blocking-run
// identity (Run = -1).
func (r *Recorder) CPUSpan(kind CPUKind, start, end sim.Time) {
	if r == nil || end <= start || !r.admit() {
		return
	}
	r.cpu.add(CPUSpan{Kind: kind, Run: -1, Start: start, End: end})
}

// CPUStallOn records one stall interval attributed to the demand run
// the CPU was blocked on — the identity the explain layer intersects
// with in-flight prefetch spans to name the blocking disk. run < 0
// means no single run (equivalent to CPUSpan(CPUStall, ...)).
func (r *Recorder) CPUStallOn(run int, start, end sim.Time) {
	if r == nil || end <= start || !r.admit() {
		return
	}
	if run < 0 {
		run = -1
	}
	r.cpu.add(CPUSpan{Kind: CPUStall, Run: run, Start: start, End: end})
}

// Prefetch records one fetch span: issued when the engine submitted the
// request, done when its last block deposited.
func (r *Recorder) Prefetch(track, run, blocks int, issued, done sim.Time) {
	if r == nil || !r.admit() {
		return
	}
	r.prefetch.add(PrefetchSpan{Track: track, Run: run, Blocks: blocks, Issued: issued, Done: done})
}

// CacheSample records the cache occupancy at one instant.
func (r *Recorder) CacheSample(at sim.Time, occupied int) {
	if r == nil || !r.admit() {
		return
	}
	r.cache.add(CacheSample{At: at, Occupied: occupied})
}

// QueueSample records one disk track's queue depth at one instant.
func (r *Recorder) QueueSample(track int, at sim.Time, depth int) {
	if r == nil || !r.admit() {
		return
	}
	r.queue.add(QueueSample{Track: track, At: at, Depth: depth})
}

// Mark records a named instant on a track.
func (r *Recorder) Mark(track int, name string, at sim.Time) {
	if r == nil || !r.admit() {
		return
	}
	r.marks.add(Mark{Track: track, Name: name, At: at})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.events
}

// Truncated reports whether the event cap dropped anything.
func (r *Recorder) Truncated() bool { return r != nil && r.truncated }

// TrackName returns the registered name of a track id, or a generated
// placeholder.
func (r *Recorder) TrackName(id int) string {
	if r != nil && id >= 0 && id < len(r.tracks) && r.tracks[id] != "" {
		return r.tracks[id]
	}
	return "track " + strconv.Itoa(id)
}

// Tracks returns the highest registered track id + 1.
func (r *Recorder) Tracks() int {
	if r == nil {
		return 0
	}
	return len(r.tracks)
}

// DiskSpans returns the recorded disk phase intervals in record order.
func (r *Recorder) DiskSpans() Events[DiskSpan] {
	if r == nil {
		return Events[DiskSpan]{}
	}
	return r.disk.Events
}

// CPUSpans returns the recorded CPU intervals in record order.
func (r *Recorder) CPUSpans() Events[CPUSpan] {
	if r == nil {
		return Events[CPUSpan]{}
	}
	return r.cpu.Events
}

// PrefetchSpans returns the recorded fetch spans in record order.
func (r *Recorder) PrefetchSpans() Events[PrefetchSpan] {
	if r == nil {
		return Events[PrefetchSpan]{}
	}
	return r.prefetch.Events
}

// CacheSamples returns the recorded occupancy samples in record order.
func (r *Recorder) CacheSamples() Events[CacheSample] {
	if r == nil {
		return Events[CacheSample]{}
	}
	return r.cache.Events
}

// QueueSamples returns the recorded queue-depth samples in record
// order.
func (r *Recorder) QueueSamples() Events[QueueSample] {
	if r == nil {
		return Events[QueueSample]{}
	}
	return r.queue.Events
}

// Marks returns the recorded instant events in record order.
func (r *Recorder) Marks() Events[Mark] {
	if r == nil {
		return Events[Mark]{}
	}
	return r.marks.Events
}
