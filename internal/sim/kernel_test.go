package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New()
	var order []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		tt := at
		k.At(tt, func() { order = append(order, tt) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order: %v", order)
		}
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		k.At(7, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := New()
	var at Time
	k.At(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	_ = k.Run()
}

func TestRunUntilHorizon(t *testing.T) {
	k := New()
	fired := map[Time]bool{}
	for _, at := range []Time{1, 2, 3, 10, 20} {
		tt := at
		k.At(tt, func() { fired[tt] = true })
	}
	if err := k.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !fired[1] || !fired[2] || !fired[3] || fired[10] || fired[20] {
		t.Fatalf("wrong events fired: %v", fired)
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want horizon 5", k.Now())
	}
	// Resume to the end.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired[20] || k.Now() != 20 {
		t.Fatalf("resume failed: now=%v fired=%v", k.Now(), fired)
	}
}

func TestStop(t *testing.T) {
	k := New()
	ran := 0
	k.At(1, func() { ran++; k.Stop() })
	k.At(2, func() { ran++ })
	if err := k.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

func TestHeapPropertyQuick(t *testing.T) {
	// Property: any multiset of (time, insertion index) pairs comes out
	// sorted by (time, insertion order).
	err := quick.Check(func(raw []uint16) bool {
		k := New()
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, r := range raw {
			at := Time(r % 64)
			k.At(at, func() { got = append(got, rec{at, i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		want := make([]rec, len(got))
		copy(want, got)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].idx < want[b].idx
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		k := New()
		var log []string
		// Two actors each re-arm their own timer five times; at t=6 and
		// t=12 both fire at one instant, where schedule order decides.
		var tick func(name string, period Time, left int) func()
		tick = func(name string, period Time, left int) func() {
			return func() {
				log = append(log, name)
				if left > 1 {
					k.After(period, tick(name, period, left-1))
				}
			}
		}
		k.After(2, tick("a", 2, 5))
		k.After(3, tick("b", 3, 5))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	if len(first) != 10 {
		t.Fatalf("ran %d events, want 10: %v", len(first), first)
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("replay length differs")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("replay diverged at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	k.Retain() // an actor that never reaches its terminal state
	k.After(1, func() {})
	if err := k.Run(); err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestRetainReleaseBalanced(t *testing.T) {
	k := New()
	k.Retain()
	k.After(1, k.Release)
	if err := k.Run(); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

func TestTimeString(t *testing.T) {
	if s := Ms(3.5).String(); s != "3.5ms" {
		t.Fatalf("Ms(3.5) = %q", s)
	}
	if s := (20 * Second).String(); s != "20s" {
		t.Fatalf("20s = %q", s)
	}
	if Ms(1500).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
	if (2 * Millisecond).Milliseconds() != 2 {
		t.Fatal("Milliseconds conversion wrong")
	}
}
