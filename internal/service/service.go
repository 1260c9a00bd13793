// Package service is the simulation-as-a-service layer: a long-lived
// front-end over core.RunGrid with the serving internals a daemon
// needs to survive heavy repeated traffic.
//
// Serving path: simulate, sweep, explain and every optimize candidate
// go through one pipeline, resolve, over a batch of points. In order:
//
//  1. Result cache — a simulation result is a pure function of
//     (core.Config, trials), so each point is keyed by the canonical
//     config hash (core.Config.Hash) plus the trial count and cached
//     in a size-bounded LRU. Repeat traffic is an O(1) lookup and the
//     cached bytes are the exact bytes the cold request produced.
//  2. Singleflight — concurrent requests for the same key share one
//     engine run; waiters block on the shared call instead of
//     duplicating work. Execution is detached from any single
//     requester's context so one impatient client cannot abort a run
//     other clients are waiting on.
//  3. Admission control — at most MaxConcurrent engine runs execute at
//     once, at most MaxQueue flights wait for a slot, and everything
//     beyond that is shed with ErrOverloaded (HTTP 429) instead of
//     letting goroutines pile up until the process collapses. Queued
//     flights that outlive the request timeout fail with
//     context.DeadlineExceeded (HTTP 503).
//
// Each point carries a variant: plain, explained (result + attribution
// report, cached under its own key) or traced (result + Chrome trace),
// which skips steps 1 and 2 — a cached or joined body has no trace.
//
// Shutdown: stop accepting requests (http.Server.Shutdown drains
// handlers), then Drain waits for detached engine runs so the process
// exits with no simulation in flight.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/explain"
	"repro/internal/trace"
)

// Options configures a Service. Zero values take the documented
// defaults.
type Options struct {
	// CacheEntries bounds the result cache's entry count (default
	// 1024). Entries are whole marshaled response bodies, which range
	// from ~1 KiB (one trial) to hundreds of KiB (MaxTrials trials
	// with per-disk arrays), so the entry bound alone leaves worst-case
	// memory at CacheEntries × the largest body — use CacheBytes to cap
	// the total.
	CacheEntries int
	// CacheBytes bounds the total bytes of cached response bodies
	// (default 256 MiB; negative disables the byte bound). Whichever of
	// CacheEntries/CacheBytes bites first drives LRU eviction.
	CacheBytes int64
	// MaxConcurrent caps simultaneously executing engine runs
	// (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue caps flights waiting for a run slot before new work is
	// shed with ErrOverloaded (default 4 × MaxConcurrent).
	MaxQueue int
	// RequestTimeout bounds one request end to end: queue wait plus
	// engine run (default 60s).
	RequestTimeout time.Duration
	// MaxTrials bounds per-request replications (default 64).
	MaxTrials int
	// MaxPoints bounds sweep batch size (default 512).
	MaxPoints int
	// MaxOptimizeEvals bounds one configuration search's evaluation
	// budget (default 512). Requests asking for more are a 400; requests
	// asking for less get exactly what they asked for.
	MaxOptimizeEvals int
	// Workers caps the engine pool one admitted run fans out over
	// (default GOMAXPROCS).
	Workers int
	// MaxTraceEvents caps the events recorded for one traced simulate
	// or explain run (default 200_000, ~a few MiB of response); past the
	// cap the trace truncates rather than the response growing unbounded.
	MaxTraceEvents int
	// Logger, when non-nil, receives one structured line per HTTP
	// request (see withRequestID). nil disables request logging;
	// request IDs are assigned either way.
	Logger *slog.Logger
	// DiskCache, when non-nil, is the persistent second tier behind the
	// in-memory LRU (see internal/diskcache). The caller owns opening
	// it — Open can fail, and whether a bad cache directory is fatal is
	// the daemon's call, not this package's. The Service takes over
	// writes, reads, and the index flush on Close. nil means
	// memory-only, exactly the pre-disk-tier behavior.
	DiskCache *diskcache.Cache
}

func (o Options) withDefaults() Options {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	switch {
	case o.CacheBytes == 0:
		o.CacheBytes = 256 << 20
	case o.CacheBytes < 0:
		o.CacheBytes = 0 // unbounded
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxConcurrent
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = 64
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 512
	}
	if o.MaxOptimizeEvals <= 0 {
		o.MaxOptimizeEvals = 512
	}
	if o.MaxTraceEvents <= 0 {
		o.MaxTraceEvents = 200_000
	}
	return o
}

// Service serves simulation requests. Create with New; safe for
// concurrent use.
type Service struct {
	opts    Options
	cache   *lru
	disk    *diskcache.Cache // nil = memory-only
	flights flightGroup
	gate    *gate
	met     *metrics
	ids     *idSource

	// runGrid is the engine entry point, a field so tests can substitute
	// failing or panicking engines without reaching into core.
	runGrid func(ctx context.Context, cfgs []core.Config, trials, workers int) ([]core.Aggregate, error)

	wg       sync.WaitGroup // detached engine executions
	draining atomic.Bool
}

// New returns a ready Service.
func New(opts Options) *Service {
	o := opts.withDefaults()
	return &Service{
		opts:    o,
		cache:   newLRU(o.CacheEntries, o.CacheBytes),
		disk:    o.DiskCache,
		gate:    newGate(o.MaxConcurrent, o.MaxQueue),
		met:     newMetrics(),
		ids:     newIDSource(),
		runGrid: core.RunGridContext,
	}
}

// CacheStatus reports how a simulate response was produced.
type CacheStatus string

const (
	// CacheHit: served from the in-memory result cache, no engine run.
	CacheHit CacheStatus = "hit"
	// CacheHitDisk: served from the persistent disk tier (CRC-verified
	// on the way out), no engine run.
	CacheHitDisk CacheStatus = "hit-disk"
	// CacheMiss: this request led a fresh engine run.
	CacheMiss CacheStatus = "miss"
	// CacheShared: joined an identical run another request started.
	CacheShared CacheStatus = "shared"
	// CacheBypass: a traced request, run privately with no lookup.
	CacheBypass CacheStatus = "bypass"
)

// variant is what a point's run must produce beyond the plain result.
type variant uint8

const (
	plain     variant = iota // the result body
	traced                   // result + Chrome trace; never looked up, shared or cached
	explained                // result + stall-attribution report
)

// point is one unit of work for resolve: a validated config, the key
// its plain result body is cached under, and the variant asked for.
type point struct {
	cfg core.Config
	key string
	v   variant
}

// newPoint keys cfg: a result depends on the canonical config and the
// trial count, nothing else, so the key is hash/trials.
func newPoint(cfg core.Config, trials int, v variant) (point, error) {
	h, err := cfg.Hash()
	if err != nil {
		return point{}, err
	}
	return point{cfg: cfg, key: fmt.Sprintf("%s/%d", h, trials), v: v}, nil
}

// flightKey is where the point's own body is shared and cached: the
// plain key, its "/explain" sibling (an explain body must never be
// served as a plain result), or "" for a traced point: neither.
func (p point) flightKey() string {
	switch p.v {
	case traced:
		return ""
	case explained:
		return p.key + "/explain"
	}
	return p.key
}

// cacheGet is the tiered lookup: memory, then disk. A disk hit is
// promoted into the memory tier only on its second access —
// scan-resistance, so one pass over a large keyspace (a big sweep
// replayed once) streams through the disk tier without evicting the
// memory tier's genuinely hot set. Counters: either tier's hit counts
// toward simd_cache_hits_total (the "no engine run" meaning the
// X-Cache accounting relies on); the disk tier additionally keeps its
// own hit/miss counters under simd_disk_cache_*.
func (s *Service) cacheGet(key string) ([]byte, CacheStatus, bool) {
	if b, ok := s.cache.get(key); ok {
		s.met.addCacheHits(1)
		return b, CacheHit, true
	}
	if s.disk != nil {
		if b, hits, ok := s.disk.Get(key); ok {
			if hits >= 2 {
				if !s.cache.add(key, b) {
					s.met.addRejected(1)
				}
			}
			s.met.addCacheHits(1)
			return b, CacheHitDisk, true
		}
	}
	return nil, CacheMiss, false
}

// cacheAdd stores a fresh result body in both tiers. Either tier may
// refuse (body larger than its whole budget, or the disk tier tripped
// to memory-only) — the body stays servable through the flight that
// produced it, and memory-tier rejections are counted so the resulting
// permanent misses are visible. Callers must not mutate b afterwards.
func (s *Service) cacheAdd(key string, b []byte) {
	if !s.cache.add(key, b) {
		s.met.addRejected(1)
	}
	if s.disk != nil {
		s.disk.Put(key, b)
	}
}

// diskStats snapshots the disk tier's counters (zero when memory-only).
func (s *Service) diskStats() diskcache.Stats {
	if s.disk == nil {
		return diskcache.Stats{}
	}
	return s.disk.Stats()
}

// Simulate serves one point aggregated over its trials, returning the
// marshaled core.ResultJSON body. With Trace set the body also carries
// the run's Chrome trace, from a private run (CacheBypass) that still
// caches its plain body; a trace is one replication, so trials must be 1.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) ([]byte, CacheStatus, error) {
	trials, err := s.trials(req.Trials)
	if err != nil {
		return nil, "", err
	}
	v := plain
	if req.Trace {
		if trials != 1 {
			return nil, "", badRequestf("trace requires trials = 1 (a trace is one replication's timeline)")
		}
		v = traced
	}
	cfg, err := req.config()
	if err != nil {
		return nil, "", err
	}
	a, err := s.resolveOne(ctx, cfg, trials, v)
	return a.body, a.status, err
}

// tracedResponse is the wire form of a traced simulate: the shared
// result schema plus the Chrome trace-event document and a truncation
// flag.
type tracedResponse struct {
	core.ResultJSON
	Trace json.RawMessage `json:"trace"`
	// TraceTruncated is always present on traced responses (no
	// omitempty): a clipped trace silently corrupts any attribution
	// built on it, so clients must be able to see "false" and trust it.
	TraceTruncated bool `json:"trace_truncated"`
}

// sweepResponse is the wire form of a sweep result: one shared-schema
// result per requested point, in request order.
type sweepResponse struct {
	Trials int               `json:"trials"`
	Points []json.RawMessage `json:"points"`
}

// Sweep serves a batch of points. Cached points are answered from the
// cache; the remainder — minus any point already in flight elsewhere —
// is fanned out through core.RunGrid as one admitted run, so a sweep
// occupies one concurrency slot regardless of size. Returns the body
// plus (hits, points) for the X-Cache accounting.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) ([]byte, int, int, error) {
	if len(req.Points) == 0 {
		return nil, 0, 0, badRequestf("sweep has no points")
	}
	if len(req.Points) > s.opts.MaxPoints {
		return nil, 0, 0, badRequestf("%d points exceeds the limit of %d", len(req.Points), s.opts.MaxPoints)
	}
	trials, err := s.trials(req.Trials)
	if err != nil {
		return nil, 0, 0, err
	}
	// Validate every point and compute every key before resolve touches
	// the cache or the flight table: all request-shaped error paths
	// happen here, where no flight exists yet.
	pts := make([]point, len(req.Points))
	for i, p := range req.Points {
		if p.Trials != 0 {
			return nil, 0, 0, badRequestf("points[%d]: set trials at the sweep level, not per point", i)
		}
		if p.Trace {
			return nil, 0, 0, badRequestf("points[%d]: trace is not supported in sweeps; use /v1/simulate", i)
		}
		cfg, err := p.config()
		if err != nil {
			return nil, 0, 0, badRequestf("points[%d]: %v", i, err)
		}
		if pts[i], err = newPoint(cfg, trials, plain); err != nil {
			return nil, 0, 0, err
		}
	}
	answers, err := s.resolve(ctx, pts, trials)
	if err != nil {
		return nil, 0, 0, err
	}
	out := make([]json.RawMessage, len(answers))
	hits := 0
	for i, a := range answers {
		out[i] = a.body
		if a.status == CacheHit || a.status == CacheHitDisk {
			hits++
		}
	}
	body, err := json.Marshal(sweepResponse{Trials: trials, Points: out})
	if err != nil {
		return nil, 0, 0, err
	}
	return body, hits, len(out), nil
}

// trials resolves and bounds a requested trial count.
func (s *Service) trials(req int) (int, error) {
	switch {
	case req == 0:
		return 1, nil
	case req < 0:
		return 0, badRequestf("trials = %d", req)
	case req > s.opts.MaxTrials:
		return 0, badRequestf("trials = %d exceeds the limit of %d", req, s.opts.MaxTrials)
	}
	return req, nil
}

// answer is one resolved point: its body and how it was produced.
type answer struct {
	body   []byte
	status CacheStatus
}

// job is one flight a request leads: the point and the call its
// waiters block on.
type job struct {
	point
	c *call
}

// resolve is the serving pipeline every entry point shares. Each point
// is looked up in the cache tiers, then joins or leads a flight (a
// traced point leads a private call); everything led goes to one spawn,
// then every flight is awaited. Leading a flight obliges the request to
// spawn it — only execute retires a flight key — so the loop has no
// error path: an error between the first lead and the spawn would
// poison keys for every later request. Callers validate first.
func (s *Service) resolve(ctx context.Context, pts []point, trials int) ([]answer, error) {
	out := make([]answer, len(pts))
	waits := make([]*call, len(pts))
	var jobs []job
	var misses, shared int64
	for i, p := range pts {
		key := p.flightKey()
		if key != "" {
			if b, status, ok := s.cacheGet(key); ok {
				out[i] = answer{b, status}
				continue
			}
		}
		c, leader := s.flights.lead(key)
		waits[i] = c
		switch {
		case key == "":
			out[i].status = CacheBypass
		case leader:
			misses++
			out[i].status = CacheMiss
		default:
			shared++
			out[i].status = CacheShared
		}
		if leader {
			jobs = append(jobs, job{p, c})
		}
	}
	// Hits were already counted inside cacheGet, tier by tier; a traced
	// point counts in none of hits, misses and shared.
	s.met.addCacheMisses(misses)
	s.met.addDedupShared(shared)
	if len(jobs) > 0 {
		s.spawn(jobs, trials)
	}
	for i, c := range waits {
		if c == nil {
			continue
		}
		b, err := s.await(ctx, c)
		if err != nil {
			return nil, err
		}
		out[i].body = b
	}
	return out, nil
}

// resolveOne keys and resolves a single point.
func (s *Service) resolveOne(ctx context.Context, cfg core.Config, trials int, v variant) (answer, error) {
	p, err := newPoint(cfg, trials, v)
	if err != nil {
		return answer{}, err
	}
	answers, err := s.resolve(ctx, []point{p}, trials)
	if err != nil {
		return answer{}, err
	}
	return answers[0], nil
}

// spawn starts the detached execution of the flights this caller
// leads. Detached means: its lifetime is bounded by the service's
// RequestTimeout and tracked for Drain, not by any one requester's
// context.
func (s *Service) spawn(jobs []job, trials int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		defer cancel()
		s.execute(ctx, jobs, trials)
	}()
}

// execute admits one engine run for the batch, with a recorder on each
// traced or explained point, runs it, encodes each point's body, and
// finishes every call at most once — on success, failure, or panic.
// The panic guard matters because execute runs in a detached goroutine:
// without it a panicking engine would kill the whole daemon, and the
// HTTP layer's recovery middleware (which only shields handler
// goroutines) answers the leader's request but could never reach the
// joiners parked on this flight. Recovering here fails the entire batch
// promptly (leader and joiners all see a 500) and retires every key, so
// the next request for any of them leads a fresh flight instead of
// hanging on a poisoned one.
func (s *Service) execute(ctx context.Context, jobs []job, trials int) {
	fail := func(err error) {
		for _, j := range jobs {
			s.flights.finish(j.flightKey(), j.c, nil, err)
		}
	}
	defer func() {
		if v := recover(); v != nil {
			s.met.addPanic()
			log.Printf("panic in detached engine run: %v\n%s", v, debug.Stack())
			// finish is idempotent, so calls that completed before the
			// panic keep their results; the rest fail now.
			fail(fmt.Errorf("internal: engine run panicked: %v", v))
		}
	}()
	if err := s.gate.acquire(ctx); err != nil {
		if err == ErrOverloaded {
			s.met.addShed()
		}
		fail(err)
		return
	}
	defer s.gate.release()
	cfgs := make([]core.Config, len(jobs))
	recs := make([]*trace.Recorder, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.cfg
		if j.v != plain {
			recs[i] = trace.New(s.opts.MaxTraceEvents)
			cfgs[i].Trace = recs[i]
		}
	}
	aggs, err := s.runGrid(ctx, cfgs, trials, s.opts.Workers)
	if err != nil {
		fail(err)
		return
	}
	for i, j := range jobs {
		b, err := s.encode(j.point, aggs[i], recs[i])
		s.flights.finish(j.flightKey(), j.c, b, err)
	}
}

// encode marshals one led point's body and fills the cache: the plain
// result always (tracing is observation-only, so it is an untraced
// run's body), an explained body unless its trace was truncated (a
// redeploy with a larger MaxTraceEvents should answer properly), a
// traced body never.
func (s *Service) encode(p point, agg core.Aggregate, rec *trace.Recorder) ([]byte, error) {
	result := core.NewResultJSON(agg)
	body, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	s.cacheAdd(p.key, body)
	if p.v == plain {
		return body, nil
	}
	truncated := rec.Truncated()
	if truncated {
		s.met.addTraceTruncated()
	}
	if p.v == traced {
		var tb bytes.Buffer
		if err := rec.WriteChrome(&tb); err != nil {
			return nil, err
		}
		return json.Marshal(tracedResponse{
			ResultJSON:     result,
			Trace:          json.RawMessage(bytes.TrimRight(tb.Bytes(), "\n")),
			TraceTruncated: truncated,
		})
	}
	res := agg.Results[0]
	rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
	if !truncated {
		// A conservation failure on an untruncated trace is our bug:
		// a 500, never an attribution that doesn't add up.
		if err := rep.Check(res.StallTime); err != nil {
			return nil, err
		}
	}
	body, err = json.Marshal(explainResponse{ResultJSON: result, TraceTruncated: truncated, Explain: rep})
	if err == nil && !truncated {
		s.cacheAdd(p.flightKey(), body)
	}
	return body, err
}

// await blocks until the shared call completes or the caller's context
// expires. An expired waiter abandons only its own wait — the run keeps
// going for everyone else and still lands in the cache.
func (s *Service) await(ctx context.Context, c *call) ([]byte, error) {
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// StartDraining flips the health endpoint to 503 so load balancers
// stop routing here while in-flight work completes.
func (s *Service) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain blocks until every detached engine execution has finished, or
// ctx expires. Call after http.Server.Shutdown: handlers are gone, but
// singleflight leaders may still be running for the cache's benefit.
func (s *Service) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close releases resources that survive Drain: today that is the disk
// tier's recency index, flushed so the next start restores exact LRU
// order. Call after Drain; a crash that skips Close costs the ordering
// hint, never entries (each was durable when its Put returned).
func (s *Service) Close() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	CacheHits, CacheMisses, DedupShared int64
	CacheBytes                          int64
	CacheEntries, QueueDepth, InUse     int
	// Disk is the persistent tier's snapshot; zero when memory-only.
	Disk diskcache.Stats
}

// StatsSnapshot returns current serving counters (used by tests and
// the daemon's shutdown log).
func (s *Service) StatsSnapshot() Stats {
	hits, misses, shared := s.met.snapshot()
	entries, bytes := s.cache.size()
	return Stats{
		CacheHits:    hits,
		CacheMisses:  misses,
		DedupShared:  shared,
		CacheBytes:   bytes,
		CacheEntries: entries,
		QueueDepth:   s.gate.depth(),
		InUse:        s.gate.inUse(),
		Disk:         s.diskStats(),
	}
}
