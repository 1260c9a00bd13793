package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/diskcache"
)

func mustDisk(t *testing.T, opts diskcache.Options) *diskcache.Cache {
	t.Helper()
	dc, err := diskcache.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// seedSweep runs the canonical warm-up sweep and returns its point
// bodies keyed by seed.
func seedSweep(t *testing.T, svc *Service, n int) map[uint64][]byte {
	t.Helper()
	bodies := make(map[uint64][]byte, n)
	for seed := uint64(1); seed <= uint64(n); seed++ {
		b, _, err := svc.Simulate(context.Background(), fastPoint(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bodies[seed] = b
	}
	return bodies
}

// TestCrashRestartServesVerifiedEntries is the acceptance test for the
// persistent tier: populate it, tear one entry mid-write through the
// atomic-write fault hook (the SIGKILL-equivalent — the first Service
// is never Closed, so no index flush happens either), restart against
// the same directory, and require that the recovery scan quarantines
// the torn entry, that a warm repeat of the seed sweep is ≥ 90%
// disk-tier-served, and that every warm body is byte-identical to its
// cold compute. Runs under -race in CI.
func TestCrashRestartServesVerifiedEntries(t *testing.T) {
	dir := t.TempDir()
	const points = 10

	tearing := false
	dc := mustDisk(t, diskcache.Options{Dir: dir, TornWrite: func(key string, encoded []byte) []byte {
		if !tearing {
			return nil
		}
		return encoded[:len(encoded)*2/3] // the tail never hit the platter
	}})
	svc := New(Options{DiskCache: dc})
	cold := seedSweep(t, svc, points)
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// One more point lands torn: the write is interrupted mid-entry.
	tearing = true
	if _, _, err := svc.Simulate(context.Background(), fastPoint(points+1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// No svc.Close(), no dc.Close(): the process is SIGKILLed here.

	// Restart: a fresh disk tier and Service over the same directory.
	dc2 := mustDisk(t, diskcache.Options{Dir: dir})
	if st := dc2.Stats(); st.Quarantined != 1 {
		t.Fatalf("recovery quarantined %d entries, want exactly the torn one", st.Quarantined)
	}
	svc2 := New(Options{DiskCache: dc2})
	var diskServed int
	for seed := uint64(1); seed <= points; seed++ {
		b, status, err := svc2.Simulate(context.Background(), fastPoint(seed))
		if err != nil {
			t.Fatalf("warm seed %d: %v", seed, err)
		}
		if status == CacheHitDisk {
			diskServed++
		}
		if !bytes.Equal(b, cold[seed]) {
			t.Fatalf("seed %d: warm body differs from cold compute", seed)
		}
	}
	if ratio := float64(diskServed) / float64(points); ratio < 0.9 {
		t.Fatalf("warm repeat %.0f%% disk-tier-served, want >= 90%%", 100*ratio)
	}
	// The torn point was never servable; recomputing it must succeed
	// and re-persist a good entry.
	b, status, err := svc2.Simulate(context.Background(), fastPoint(points+1))
	if err != nil || status != CacheMiss {
		t.Fatalf("torn point recompute: status %q, err %v, want a fresh miss", status, err)
	}
	if err := svc2.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	dc3 := mustDisk(t, diskcache.Options{Dir: dir})
	svc3 := New(Options{DiskCache: dc3})
	if b2, status, err := svc3.Simulate(context.Background(), fastPoint(points+1)); err != nil || status != CacheHitDisk || !bytes.Equal(b, b2) {
		t.Fatalf("re-persisted torn point: status %q, err %v, identical %v", status, err, bytes.Equal(b, b2))
	}
}

// TestScanResistantPromotion pins the promotion policy: a disk hit
// enters the memory tier only on its second access, so a one-pass scan
// cannot flush the hot set.
func TestScanResistantPromotion(t *testing.T) {
	dir := t.TempDir()
	dc := mustDisk(t, diskcache.Options{Dir: dir})
	svc := New(Options{DiskCache: dc})
	seedSweep(t, svc, 1)
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}

	// Restart memory-cold.
	svc2 := New(Options{DiskCache: mustDisk(t, diskcache.Options{Dir: dir})})
	for i, want := range []CacheStatus{CacheHitDisk, CacheHitDisk, CacheHit} {
		_, status, err := svc2.Simulate(context.Background(), fastPoint(1))
		if err != nil {
			t.Fatal(err)
		}
		if status != want {
			t.Fatalf("access %d: status %q, want %q (promote on second disk hit)", i+1, status, want)
		}
	}
}

// TestBreakerDegradesToMemoryOnly forces disk I/O failures through the
// fault hook and requires: the tier trips open after the threshold,
// /v1/simulate keeps answering with correct (byte-identical) results,
// and the state gauge reports the trip on /metrics.
func TestBreakerDegradesToMemoryOnly(t *testing.T) {
	injected := errors.New("injected EIO")
	failing := false
	dc := mustDisk(t, diskcache.Options{
		Dir:              t.TempDir(),
		FailureThreshold: 2,
		ProbeEvery:       1000, // stay open for the whole test
		FailOp: func(op string) error {
			if failing {
				return injected
			}
			return nil
		},
	})
	svc := New(Options{DiskCache: dc})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cold := seedSweep(t, svc, 4)
	failing = true

	// Distinct new points: each miss reaches the disk tier's Put and
	// fails until the breaker opens. Requests must keep succeeding
	// throughout — the dying volume costs persistence, not answers.
	for seed := uint64(10); seed < 16; seed++ {
		if _, _, err := svc.Simulate(context.Background(), fastPoint(seed)); err != nil {
			t.Fatalf("seed %d during disk failures: %v", seed, err)
		}
	}
	if st := svc.diskStats(); st.State != diskcache.StateOpen {
		t.Fatalf("breaker state = %d after repeated I/O failures, want open", st.State)
	}
	// Memory-only mode still serves cached results byte-identically…
	for seed := uint64(1); seed <= 4; seed++ {
		b, status, err := svc.Simulate(context.Background(), fastPoint(seed))
		if err != nil {
			t.Fatalf("warm seed %d in memory-only mode: %v", seed, err)
		}
		if status != CacheHit {
			t.Fatalf("warm seed %d: status %q, want memory hit", seed, status)
		}
		if !bytes.Equal(b, cold[seed]) {
			t.Fatalf("seed %d: memory-only body differs", seed)
		}
	}
	// …and the trip is visible on the metrics endpoint.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "simd_disk_cache_state 2") {
		t.Fatalf("metrics missing tripped state gauge:\n%s", grepLines(string(body), "disk_cache"))
	}
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestDiskTierMetricsExposition asserts every simd_disk_cache_* family
// and the per-tier rejection counter appear on /metrics with live
// values.
func TestDiskTierMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	svc := New(Options{DiskCache: mustDisk(t, diskcache.Options{Dir: dir})})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	seedSweep(t, svc, 2)
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"simd_disk_cache_hits_total 0",
		"simd_disk_cache_misses_total 2", // the two cold lookups
		"simd_disk_cache_writes_total 2",
		"simd_disk_cache_evictions_total 0",
		"simd_disk_cache_quarantined_total 0",
		"simd_disk_cache_state 0",
		`simd_cache_rejected_total{tier="memory"} 0`,
		`simd_cache_rejected_total{tier="disk"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(text, "cache"))
		}
	}
	if !strings.Contains(text, "simd_disk_cache_bytes ") || strings.Contains(text, "simd_disk_cache_bytes 0\n") {
		t.Errorf("simd_disk_cache_bytes should be non-zero after two writes:\n%s", grepLines(text, "disk_cache_bytes"))
	}
}

// TestMemoryRejectionCounted pins the satellite fix: a body larger
// than the memory tier's whole byte budget is dropped, and the drop is
// counted instead of silent.
func TestMemoryRejectionCounted(t *testing.T) {
	svc := New(Options{CacheBytes: 16}) // smaller than any result body
	if _, _, err := svc.Simulate(context.Background(), fastPoint(1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	svc.met.mu.Lock()
	rejected := svc.met.rejected
	svc.met.mu.Unlock()
	if rejected == 0 {
		t.Fatal("oversized body dropped without bumping simd_cache_rejected_total")
	}
	// The point stayed servable through its flight and is recomputed
	// (not poisoned) afterwards.
	if _, status, err := svc.Simulate(context.Background(), fastPoint(1)); err != nil || status != CacheMiss {
		t.Fatalf("after rejection: status %q, err %v, want a fresh miss", status, err)
	}
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// grepLines returns the lines of text containing pat, for focused
// failure messages.
func grepLines(text, pat string) string {
	var sb strings.Builder
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, pat) {
			sb.WriteString(ln)
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
