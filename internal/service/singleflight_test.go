package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLeaderPanicFailsJoinersPromptly is the regression test for the
// singleflight panic gap: the engine run executes in a detached
// goroutine, so the HTTP panic-recovery middleware (which only shields
// handler goroutines) can never reach the joiners parked on the
// flight. Before execute grew its own recover, a panicking leader run
// either killed the daemon or left every joiner hanging until the
// request timeout on a poisoned key. Now the whole batch must fail
// promptly — well inside the request timeout — and the key must be
// immediately leadable again. Every variant runs through the same
// engine seam and guard: plain, traced (each client leads a private
// run) and explained.
func TestLeaderPanicFailsJoinersPromptly(t *testing.T) {
	traced := fastPoint(11)
	traced.Trace = true
	for _, tc := range []struct {
		name  string
		req   SimulateRequest
		serve func(*Service, context.Context, SimulateRequest) ([]byte, CacheStatus, error)
		fresh CacheStatus // status of the healthy rerun
	}{
		{"plain", fastPoint(11), (*Service).Simulate, CacheMiss},
		{"traced", traced, (*Service).Simulate, CacheBypass},
		{"explain", fastPoint(11), (*Service).Explain, CacheMiss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const clients = 8
			// A queue as deep as the burst: traced clients each take a
			// slot, and none may be shed before its run panics.
			svc := New(Options{RequestTimeout: 30 * time.Second, MaxQueue: clients})
			svc.runGrid = func(ctx context.Context, cfgs []core.Config, trials, workers int) ([]core.Aggregate, error) {
				panic("injected engine panic")
			}

			errs := make([]error, clients)
			var wg sync.WaitGroup
			start := time.Now()
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, errs[i] = tc.serve(svc, context.Background(), tc.req)
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(start)

			for i, err := range errs {
				if err == nil {
					t.Fatalf("client %d: no error from a panicked run", i)
				}
				if !strings.Contains(err.Error(), "panic") {
					t.Fatalf("client %d: err = %v, want the panic surfaced", i, err)
				}
				// The panic error must map to a 500, not be mistaken for a
				// client mistake or a timeout.
				var reqErr *requestError
				if errors.As(err, &reqErr) || errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("client %d: panic error %v maps to %T, want a plain 500", i, err, err)
				}
			}
			// "Promptly" = the failure propagated, nobody sat out the 30s
			// request timeout.
			if elapsed > 10*time.Second {
				t.Fatalf("joiners took %v to fail, want prompt failure", elapsed)
			}
			if p := svc.met.panicsSnapshot(); p == 0 {
				t.Fatal("simd_panics_total not incremented by the engine panic")
			}

			// The key must not be poisoned: with a healthy engine the same
			// point runs fresh and succeeds.
			svc.runGrid = core.RunGridContext
			ctx := testCtx(t, 10*time.Second)
			if _, status, err := tc.serve(svc, ctx, tc.req); err != nil || status != tc.fresh {
				t.Fatalf("rerun after panic: status %q, err %v; want a fresh successful %s", status, err, tc.fresh)
			}
			if err := svc.Drain(testCtx(t, 5*time.Second)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFinishIdempotent pins the property the panic path relies on:
// finishing a call twice keeps the first result and does not re-close
// the done channel.
func TestFinishIdempotent(t *testing.T) {
	var g flightGroup
	c, leader := g.lead("k")
	if !leader {
		t.Fatal("first lead was not leader")
	}
	g.finish("k", c, []byte("first"), nil)
	g.finish("k", c, nil, errors.New("late failure")) // must be a no-op
	<-c.done
	if string(c.val) != "first" || c.err != nil {
		t.Fatalf("call = (%q, %v), want the first finish to stand", c.val, c.err)
	}
}

// TestPrivateCallRetiresNoFlight pins the traced path's use of the
// flight table: lead("") hands out a fresh private call every time and
// registers nothing, and finishing one leaves registered flights alone.
func TestPrivateCallRetiresNoFlight(t *testing.T) {
	var g flightGroup
	shared, _ := g.lead("k")
	a, leadA := g.lead("")
	b, leadB := g.lead("")
	if !leadA || !leadB || a == b {
		t.Fatalf("private calls: leaders %v %v, distinct %v; want two distinct led calls", leadA, leadB, a != b)
	}
	if len(g.calls) != 1 {
		t.Fatalf("%d registered flights, want only %q", len(g.calls), "k")
	}
	g.finish("", a, []byte("private"), nil)
	<-a.done
	if c, leader := g.lead("k"); leader || c != shared {
		t.Fatal("finishing a private call retired another request's flight")
	}
}
