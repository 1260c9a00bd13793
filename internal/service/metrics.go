package service

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/diskcache"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning a
// cached lookup (~µs) to a long sweep. Prometheus convention: each
// bucket counts observations ≤ its bound; +Inf closes the ladder.
var latencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05,
	.1, .25, .5, 1, 2.5, 5, 10, 30, 60,
}

// sizeBuckets are the response-size upper bounds in bytes: an error
// body is tens of bytes, a single-trial result ~1 KiB, a MaxPoints
// sweep of MaxTrials trials hundreds of KiB.
var sizeBuckets = []float64{
	128, 512, 2048, 8192, 32768, 131072, 524288, 2097152,
}

// hist is one fixed-bucket histogram. Not self-locking: the owning
// metrics mutex guards it.
type hist struct {
	buckets []float64 // upper bounds, ascending
	counts  []int64   // parallel to buckets, non-cumulative
	inf     int64
	sum     float64
	count   int64
}

func newHist(buckets []float64) *hist {
	return &hist{buckets: buckets, counts: make([]int64, len(buckets))}
}

func (h *hist) observe(v float64) {
	h.sum += v
	h.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// write renders h as the _bucket, _sum and _count series of a
// Prometheus histogram family; labels is the series' label list
// without braces, "" for none.
func (h *hist) write(w io.Writer, family, labels string) {
	le, set := "", ""
	if labels != "" {
		le, set = labels+",", "{"+labels+"}"
	}
	var cum int64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", family, le, ub, cum)
	}
	cum += h.inf
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, le, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", family, set, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", family, set, h.count)
}

// metrics is the daemon's instrumentation: request counters by endpoint
// and status code, serving-path counters (cache, singleflight,
// admission), and per-endpoint latency and response-size histograms.
// All methods are safe for concurrent use; Prometheus text rendering
// takes the same lock, so a scrape sees a consistent snapshot.
type metrics struct {
	mu sync.Mutex

	requests map[reqKey]int64
	inFlight int64

	cacheHits   int64
	cacheMisses int64
	dedupShared int64
	rejected    int64 // memory-tier bodies refused for exceeding the whole byte budget
	shed        int64
	timeouts    int64
	panics      int64

	// traceTruncated counts traced or explained runs whose recorder hit
	// its event cap — responses flagged trace_truncated on the wire.
	traceTruncated int64

	optRequests    int64
	optEvaluations int64
	optCacheServed int64
	optSearch      *hist // search duration, seconds

	latency map[string]*hist // per endpoint, seconds
	size    map[string]*hist // per endpoint, response bytes

	// Build identity, resolved once at startup.
	goVersion string
	version   string
}

// reqKey labels one requests-total series.
type reqKey struct {
	endpoint string
	code     int
}

func newMetrics() *metrics {
	m := &metrics{
		requests:  make(map[reqKey]int64),
		latency:   make(map[string]*hist),
		size:      make(map[string]*hist),
		optSearch: newHist(latencyBuckets),
		goVersion: "unknown",
		version:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.goVersion = bi.GoVersion
		if bi.Main.Version != "" {
			m.version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.version = s.Value
			}
		}
	}
	return m
}

func (m *metrics) requestStarted() {
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

// requestFinished records one completed request: its endpoint, HTTP
// status code, wall-clock latency in seconds, and response body bytes.
func (m *metrics) requestFinished(endpoint string, code int, seconds float64, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	m.requests[reqKey{endpoint, code}]++
	lh := m.latency[endpoint]
	if lh == nil {
		lh = newHist(latencyBuckets)
		m.latency[endpoint] = lh
	}
	lh.observe(seconds)
	sh := m.size[endpoint]
	if sh == nil {
		sh = newHist(sizeBuckets)
		m.size[endpoint] = sh
	}
	sh.observe(float64(bytes))
}

func (m *metrics) addCacheHits(n int64)   { m.mu.Lock(); m.cacheHits += n; m.mu.Unlock() }
func (m *metrics) addCacheMisses(n int64) { m.mu.Lock(); m.cacheMisses += n; m.mu.Unlock() }
func (m *metrics) addDedupShared(n int64) { m.mu.Lock(); m.dedupShared += n; m.mu.Unlock() }
func (m *metrics) addRejected(n int64)    { m.mu.Lock(); m.rejected += n; m.mu.Unlock() }
func (m *metrics) addShed()               { m.mu.Lock(); m.shed++; m.mu.Unlock() }

// addOptimize records one finished search: its evaluation counts and
// end-to-end duration in seconds.
func (m *metrics) addOptimize(evals, served int64, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.optRequests++
	m.optEvaluations += evals
	m.optCacheServed += served
	m.optSearch.observe(seconds)
}

// optimizeSnapshot returns (searches, evaluations, cache-served) for
// tests and logs.
func (m *metrics) optimizeSnapshot() (requests, evals, served int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.optRequests, m.optEvaluations, m.optCacheServed
}
func (m *metrics) addTimeout() { m.mu.Lock(); m.timeouts++; m.mu.Unlock() }
func (m *metrics) addPanic()   { m.mu.Lock(); m.panics++; m.mu.Unlock() }

// addTraceTruncated records one traced run clipped by the event cap.
func (m *metrics) addTraceTruncated() { m.mu.Lock(); m.traceTruncated++; m.mu.Unlock() }

// traceTruncatedSnapshot returns the truncated-trace count (tests).
func (m *metrics) traceTruncatedSnapshot() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.traceTruncated
}

// panicsSnapshot returns the recovered-panic count (tests).
func (m *metrics) panicsSnapshot() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.panics
}

// snapshot returns (hits, misses, shared) for tests and logs.
func (m *metrics) snapshot() (hits, misses, shared int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits, m.cacheMisses, m.dedupShared
}

// sortedEndpoints returns the keys of a per-endpoint histogram map in
// deterministic order, so consecutive scrapes diff cleanly.
func sortedEndpoints(hs map[string]*hist) []string {
	eps := make([]string, 0, len(hs))
	for ep := range hs {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	return eps
}

// writePrometheus renders the Prometheus text exposition format
// (version 0.0.4). queueDepth, cacheEntries, cacheBytes and the disk
// tier's snapshot are sampled by the caller at scrape time (they live
// in the gate, the LRU and the diskcache, not here). The
// simd_disk_cache_* families are emitted even when no disk tier is
// configured — constant zeros and a closed-state gauge, so dashboards
// and alerts keep one shape across both deployments. Every family ends
// its last sample line with a newline, as the format requires.
func (m *metrics) writePrometheus(w io.Writer, queueDepth, cacheEntries int, cacheBytes int64, ds diskcache.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP simd_build_info Build identity of the running daemon; the value is always 1.")
	fmt.Fprintln(w, "# TYPE simd_build_info gauge")
	fmt.Fprintf(w, "simd_build_info{goversion=%q,version=%q} 1\n", m.goVersion, m.version)

	fmt.Fprintln(w, "# HELP simd_requests_total Completed HTTP requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE simd_requests_total counter")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "simd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintln(w, "# HELP simd_in_flight Requests currently being served.")
	fmt.Fprintln(w, "# TYPE simd_in_flight gauge")
	fmt.Fprintf(w, "simd_in_flight %d\n", m.inFlight)

	fmt.Fprintln(w, "# HELP simd_cache_hits_total Simulation points served from the result cache.")
	fmt.Fprintln(w, "# TYPE simd_cache_hits_total counter")
	fmt.Fprintf(w, "simd_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintln(w, "# HELP simd_cache_misses_total Cacheable points that missed both tiers and led an engine run; traced requests bypass the cache and count in no cache counter.")
	fmt.Fprintln(w, "# TYPE simd_cache_misses_total counter")
	fmt.Fprintf(w, "simd_cache_misses_total %d\n", m.cacheMisses)
	fmt.Fprintln(w, "# HELP simd_cache_entries Result-cache occupancy.")
	fmt.Fprintln(w, "# TYPE simd_cache_entries gauge")
	fmt.Fprintf(w, "simd_cache_entries %d\n", cacheEntries)
	fmt.Fprintln(w, "# HELP simd_cache_bytes Total bytes of cached response bodies.")
	fmt.Fprintln(w, "# TYPE simd_cache_bytes gauge")
	fmt.Fprintf(w, "simd_cache_bytes %d\n", cacheBytes)

	fmt.Fprintln(w, "# HELP simd_cache_rejected_total Result bodies a cache tier refused because they exceed its whole byte budget; every future request for such a point is an engine run.")
	fmt.Fprintln(w, "# TYPE simd_cache_rejected_total counter")
	fmt.Fprintf(w, "simd_cache_rejected_total{tier=\"memory\"} %d\n", m.rejected)
	fmt.Fprintf(w, "simd_cache_rejected_total{tier=\"disk\"} %d\n", ds.Rejected)

	fmt.Fprintln(w, "# HELP simd_disk_cache_hits_total Points served from the persistent disk tier (CRC-verified on read).")
	fmt.Fprintln(w, "# TYPE simd_disk_cache_hits_total counter")
	fmt.Fprintf(w, "simd_disk_cache_hits_total %d\n", ds.Hits)
	fmt.Fprintln(w, "# HELP simd_disk_cache_misses_total Disk-tier lookups not served, breaker skips included.")
	fmt.Fprintln(w, "# TYPE simd_disk_cache_misses_total counter")
	fmt.Fprintf(w, "simd_disk_cache_misses_total %d\n", ds.Misses)
	fmt.Fprintln(w, "# HELP simd_disk_cache_writes_total Entries durably written to the disk tier (fsync + atomic rename).")
	fmt.Fprintln(w, "# TYPE simd_disk_cache_writes_total counter")
	fmt.Fprintf(w, "simd_disk_cache_writes_total %d\n", ds.Writes)
	fmt.Fprintln(w, "# HELP simd_disk_cache_evictions_total Disk-tier entries removed to fit the byte budget.")
	fmt.Fprintln(w, "# TYPE simd_disk_cache_evictions_total counter")
	fmt.Fprintf(w, "simd_disk_cache_evictions_total %d\n", ds.Evictions)
	fmt.Fprintln(w, "# HELP simd_disk_cache_quarantined_total Corrupt entry files moved to the quarantine directory (recovery scan and read path); quarantined entries are never served.")
	fmt.Fprintln(w, "# TYPE simd_disk_cache_quarantined_total counter")
	fmt.Fprintf(w, "simd_disk_cache_quarantined_total %d\n", ds.Quarantined)
	fmt.Fprintln(w, "# HELP simd_disk_cache_state Disk-tier circuit-breaker state: 0 closed (healthy), 1 half-open (probing), 2 open (memory-only).")
	fmt.Fprintln(w, "# TYPE simd_disk_cache_state gauge")
	fmt.Fprintf(w, "simd_disk_cache_state %d\n", ds.State)
	fmt.Fprintln(w, "# HELP simd_disk_cache_bytes Total size of servable disk-tier entry files.")
	fmt.Fprintln(w, "# TYPE simd_disk_cache_bytes gauge")
	fmt.Fprintf(w, "simd_disk_cache_bytes %d\n", ds.Bytes)

	fmt.Fprintln(w, "# HELP simd_dedup_shared_total Requests that joined an identical in-flight run.")
	fmt.Fprintln(w, "# TYPE simd_dedup_shared_total counter")
	fmt.Fprintf(w, "simd_dedup_shared_total %d\n", m.dedupShared)

	fmt.Fprintln(w, "# HELP simd_optimize_requests_total Completed configuration searches.")
	fmt.Fprintln(w, "# TYPE simd_optimize_requests_total counter")
	fmt.Fprintf(w, "simd_optimize_requests_total %d\n", m.optRequests)
	fmt.Fprintln(w, "# HELP simd_optimize_evaluations_total Candidate evaluations performed by searches, adaptive-trial escalations included.")
	fmt.Fprintln(w, "# TYPE simd_optimize_evaluations_total counter")
	fmt.Fprintf(w, "simd_optimize_evaluations_total %d\n", m.optEvaluations)
	fmt.Fprintln(w, "# HELP simd_optimize_cache_served_total Search evaluations answered from the result cache or a shared in-flight run.")
	fmt.Fprintln(w, "# TYPE simd_optimize_cache_served_total counter")
	fmt.Fprintf(w, "simd_optimize_cache_served_total %d\n", m.optCacheServed)
	fmt.Fprintln(w, "# HELP simd_optimize_search_seconds End-to-end configuration-search duration.")
	fmt.Fprintln(w, "# TYPE simd_optimize_search_seconds histogram")
	m.optSearch.write(w, "simd_optimize_search_seconds", "")

	fmt.Fprintln(w, "# HELP simd_admission_shed_total Requests shed with 429 because the queue was full.")
	fmt.Fprintln(w, "# TYPE simd_admission_shed_total counter")
	fmt.Fprintf(w, "simd_admission_shed_total %d\n", m.shed)
	fmt.Fprintln(w, "# HELP simd_request_timeouts_total Requests that expired while queued or running.")
	fmt.Fprintln(w, "# TYPE simd_request_timeouts_total counter")
	fmt.Fprintf(w, "simd_request_timeouts_total %d\n", m.timeouts)
	fmt.Fprintln(w, "# HELP simd_panics_total Handler panics recovered into 500 responses.")
	fmt.Fprintln(w, "# TYPE simd_panics_total counter")
	fmt.Fprintf(w, "simd_panics_total %d\n", m.panics)
	fmt.Fprintln(w, "# HELP simd_trace_truncated_total Traced or explained runs whose trace hit the event cap and was clipped.")
	fmt.Fprintln(w, "# TYPE simd_trace_truncated_total counter")
	fmt.Fprintf(w, "simd_trace_truncated_total %d\n", m.traceTruncated)
	fmt.Fprintln(w, "# HELP simd_queue_depth Callers waiting for an engine slot.")
	fmt.Fprintln(w, "# TYPE simd_queue_depth gauge")
	fmt.Fprintf(w, "simd_queue_depth %d\n", queueDepth)

	fmt.Fprintln(w, "# HELP simd_request_latency_seconds Request latency by endpoint.")
	fmt.Fprintln(w, "# TYPE simd_request_latency_seconds histogram")
	for _, ep := range sortedEndpoints(m.latency) {
		m.latency[ep].write(w, "simd_request_latency_seconds", fmt.Sprintf("endpoint=%q", ep))
	}

	fmt.Fprintln(w, "# HELP simd_response_bytes Response body size by endpoint.")
	fmt.Fprintln(w, "# TYPE simd_response_bytes histogram")
	for _, ep := range sortedEndpoints(m.size) {
		m.size[ep].write(w, "simd_response_bytes", fmt.Sprintf("endpoint=%q", ep))
	}
}
