package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestSimulateCachedBytesIdentical(t *testing.T) {
	svc := New(Options{})
	cold, status, err := svc.Simulate(context.Background(), fastPoint(7))
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheMiss {
		t.Fatalf("first request status %q, want miss", status)
	}
	warm, status, err := svc.Simulate(context.Background(), fastPoint(7))
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheHit {
		t.Fatalf("second request status %q, want hit", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached body differs from cold body")
	}
	if err := svc.Drain(testCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestSingleflightSharesOneRun issues many concurrent identical
// requests against a single-slot service and asserts that they all
// succeed while the engine ran at most a couple of times — without
// dedup, a one-slot gate with a tiny queue would shed most of them.
// Explains share their runs exactly like simulates.
func TestSingleflightSharesOneRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func(*Service, context.Context, SimulateRequest) ([]byte, CacheStatus, error)
	}{
		{"simulate", (*Service).Simulate},
		{"explain", (*Service).Explain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Options{MaxConcurrent: 1, MaxQueue: 1})
			const clients = 32
			var wg sync.WaitGroup
			errs := make([]error, clients)
			bodies := make([][]byte, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					bodies[i], _, errs[i] = tc.serve(svc, context.Background(), fastPoint(5))
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", i, err)
				}
			}
			for i := 1; i < clients; i++ {
				if !bytes.Equal(bodies[0], bodies[i]) {
					t.Fatalf("client %d saw different bytes", i)
				}
			}
			hits, misses, shared := svc.met.snapshot()
			// Every client either hit the cache (arrived after the run
			// finished), led a fresh run (a miss), or joined one in flight
			// (shared) — the three statuses partition the traffic, so misses
			// count engine runs exactly. At most a couple of distinct runs can
			// have started between cache lookups and flight registration.
			if hits+misses+shared != clients {
				t.Fatalf("hits %d + misses %d + shared %d != %d clients", hits, misses, shared, clients)
			}
			if misses > 3 {
				t.Fatalf("%d distinct engine runs for identical requests (shared %d); singleflight not deduplicating", misses, shared)
			}
			if err := svc.Drain(testCtx(t, 5*time.Second)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAdmissionShedsWith429(t *testing.T) {
	// One slot, default queue (4). The test itself pins the slot, so the
	// burst deterministically fills the queue and the excess is shed with
	// ErrOverloaded → 429 at the HTTP layer. (Pinning via a slow request
	// instead is racy: on a fast machine the burst drains quicker than it
	// arrives and nothing sheds.)
	svc := New(Options{MaxConcurrent: 1, MaxQueue: 0})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if err := svc.gate.acquire(testCtx(t, time.Second)); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			svc.gate.release()
		}
	}()

	const clients = 12
	codes := make([]int, clients)
	var answered atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(SimulateRequest{K: 8, D: 2, N: 4, BlocksPerRun: 400, Seed: uint64(1000 + i)})
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				answered.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			answered.Add(1)
		}(i)
	}
	// While the test holds the only slot, every request either queues
	// (at most 4) or is shed immediately — so exactly 8 answer now, all
	// with 429. Wait for them, then hand the slot back so the queued
	// four complete with 200.
	for deadline := time.Now().Add(10 * time.Second); answered.Load() < clients-4; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d shed requests answered", answered.Load(), clients-4)
		}
		time.Sleep(time.Millisecond)
	}
	svc.gate.release()
	released = true
	wg.Wait()
	var ok200, shed429 int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
		default:
			t.Fatalf("unexpected status %d (want only 200/429)", c)
		}
	}
	if ok200 == 0 {
		t.Fatal("no request succeeded")
	}
	if shed429 == 0 {
		t.Fatal("no request was shed: admission control is not bounding load")
	}
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadMixedTraffic is the acceptance load test: 64 concurrent
// clients issue a mix of repeated and distinct configurations (some via
// sweeps), everything succeeds, the cache hit ratio on the repeated mix
// exceeds 0.5, cached responses are byte-identical to cold ones, and
// shutdown drains without leaking goroutines. Run under -race in CI.
func TestLoadMixedTraffic(t *testing.T) {
	before := runtime.NumGoroutine()

	// Request logging on (to a discarded sink) so the slog path runs
	// under -race with 64 concurrent clients.
	svc := New(Options{
		CacheEntries: 256,
		Logger:       slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(svc.Handler())

	const (
		clients        = 64
		reqsPerClient  = 8
		distinctPoints = 16 // 512 requests over 16 points → hit-heavy
	)
	var (
		mu        sync.Mutex
		firstBody = make(map[uint64][]byte) // seed → first body seen
	)
	errCh := make(chan error, clients*reqsPerClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqsPerClient; r++ {
				seed := uint64((c*reqsPerClient+r)%distinctPoints + 1)
				if (c+r)%5 == 4 {
					// Every fifth request is a 3-point sweep drawn from
					// the same distinct pool.
					req := SweepRequest{Points: []SimulateRequest{
						fastPoint(seed),
						fastPoint(seed%distinctPoints + 1),
						fastPoint((seed+1)%distinctPoints + 1),
					}}
					buf, _ := json.Marshal(req)
					resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
					if err != nil {
						errCh <- err
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("sweep status %d: %s", resp.StatusCode, body)
					}
					continue
				}
				buf, _ := json.Marshal(fastPoint(seed))
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(buf))
				if err != nil {
					errCh <- err
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("simulate status %d: %s", resp.StatusCode, body)
					continue
				}
				mu.Lock()
				if prev, ok := firstBody[seed]; ok {
					if !bytes.Equal(prev, body) {
						errCh <- fmt.Errorf("seed %d: response bytes changed between requests", seed)
					}
				} else {
					firstBody[seed] = body
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	hits, misses, _ := svc.met.snapshot()
	ratio := float64(hits) / float64(hits+misses)
	if ratio <= 0.5 {
		t.Fatalf("cache hit ratio %.3f (hits %d, misses %d), want > 0.5 on the repeated mix", ratio, hits, misses)
	}
	if len(firstBody) != distinctPoints {
		t.Fatalf("saw %d distinct points, want %d", len(firstBody), distinctPoints)
	}

	// Shutdown: close the server (waits for handlers), drain detached
	// runs, then verify the goroutine count returns to baseline.
	ts.Close()
	if err := svc.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepInvalidPointDoesNotPoisonFlights is the regression test for
// a singleflight leak: a sweep that failed validation partway used to
// leave flights it had already led registered but never spawned, so
// every later request for those configs joined a dead flight and hung
// until the request timeout. The whole batch must be validated before
// any flight is led.
func TestSweepInvalidPointDoesNotPoisonFlights(t *testing.T) {
	svc := New(Options{})
	_, _, _, err := svc.Sweep(context.Background(), SweepRequest{Points: []SimulateRequest{
		fastPoint(3), // valid: would have led a flight under the old code
		{K: 1},       // invalid: fails validation after the point above
	}})
	var reqErr *requestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("sweep error = %v, want a bad-request error", err)
	}
	// The valid point must still be freshly servable, not stuck behind
	// a flight nobody runs.
	ctx := testCtx(t, 5*time.Second)
	if _, status, err := svc.Simulate(ctx, fastPoint(3)); err != nil || status != CacheMiss {
		t.Fatalf("simulate after failed sweep: status %q, err %v; want a fresh miss", status, err)
	}
	if err := svc.Drain(testCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestDrainWaitsForDetachedRuns: a requester that abandons its request
// abandons only its wait. The detached run completes, lands in the
// cache, and Drain waits for it — explains included.
func TestDrainWaitsForDetachedRuns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func(*Service, context.Context, SimulateRequest) ([]byte, CacheStatus, error)
	}{
		{"simulate", (*Service).Simulate},
		{"explain", (*Service).Explain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Options{})
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // the requester abandons immediately…
			if _, _, err := tc.serve(svc, ctx, fastPoint(31)); err == nil {
				t.Fatal("cancelled request did not error")
			}
			// …but the detached run completes and lands in the cache.
			if err := svc.Drain(testCtx(t, 5*time.Second)); err != nil {
				t.Fatal(err)
			}
			_, status, err := tc.serve(svc, context.Background(), fastPoint(31))
			if err != nil {
				t.Fatal(err)
			}
			if status != CacheHit {
				t.Fatalf("status %q after drain, want hit: the abandoned run should have been cached", status)
			}
		})
	}
}
