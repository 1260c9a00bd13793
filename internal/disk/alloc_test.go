package disk

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestSubmitNoWaitZeroAlloc pins the disk request path at zero
// allocations per serviced request: SubmitNoWait → dispatch →
// chained block deliveries → OnBlock must all run on pooled state. A
// regression here silently re-introduces per-I/O garbage on the hottest
// loop of the simulator.
func TestSubmitNoWaitZeroAlloc(t *testing.T) {
	k := sim.New()
	d, err := New(k, 0, PaperParams(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// A standing far-future event keeps the calendar from draining, so
	// RunUntil never releases its backing arrays mid-measurement.
	k.At(1e12*sim.Millisecond, func() {})

	req := Request{Count: 4}
	req.OnBlock = func(i int, at sim.Time) {}

	submitted := 0
	var horizon sim.Time
	service := func() {
		req.Start = (submitted * 61) % 1000
		submitted++
		d.SubmitNoWait(&req)
		horizon += 10 * sim.Second // far beyond one request's service time
		if err := k.RunUntil(horizon); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		if d.Busy() || d.QueueLen() != 0 {
			t.Fatal("request did not complete within the horizon")
		}
	}
	// Warm the queue, thunk table, and calendar arrays.
	for i := 0; i < 4; i++ {
		service()
	}
	if avg := testing.AllocsPerRun(100, service); avg != 0 {
		t.Errorf("disk request path allocates %.2f allocs/op, want 0", avg)
	}
}
