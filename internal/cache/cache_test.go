package cache

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, capacity, k int) *Cache {
	t.Helper()
	c, err := New(capacity, k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(4, 5); err == nil {
		t.Fatal("capacity < k accepted")
	}
	if _, err := New(5, 5); err != nil {
		t.Fatal("capacity == k rejected")
	}
}

func TestReserveDepositConsumeCycle(t *testing.T) {
	c := mustNew(t, 10, 2)
	if !c.Reserve(3) {
		t.Fatal("Reserve(3) failed with empty cache")
	}
	if c.Free() != 7 || c.Reserved() != 3 || c.Resident() != 0 {
		t.Fatalf("after reserve: free=%d reserved=%d resident=%d", c.Free(), c.Reserved(), c.Resident())
	}
	c.Deposit(0, 0)
	c.Deposit(0, 1)
	c.Deposit(1, 0)
	if c.Reserved() != 0 || c.Resident() != 3 {
		t.Fatalf("after deposits: reserved=%d resident=%d", c.Reserved(), c.Resident())
	}
	if c.Available(0) != 2 || c.Available(1) != 1 {
		t.Fatalf("available = %d/%d", c.Available(0), c.Available(1))
	}
	c.Consume(0)
	if c.Available(0) != 1 || c.Free() != 8 {
		t.Fatalf("after consume: avail=%d free=%d", c.Available(0), c.Free())
	}
	if c.NextToConsume(0) != 1 {
		t.Fatalf("next to consume = %d", c.NextToConsume(0))
	}
	if err := c.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveRefusesOversubscription(t *testing.T) {
	c := mustNew(t, 5, 2)
	if !c.Reserve(5) {
		t.Fatal("full reserve failed")
	}
	if c.Reserve(1) {
		t.Fatal("oversubscribing reserve succeeded")
	}
	if c.Free() != 0 {
		t.Fatalf("free = %d", c.Free())
	}
}

func TestUnreserve(t *testing.T) {
	c := mustNew(t, 5, 1)
	c.Reserve(4)
	c.Unreserve(3)
	if c.Free() != 4 || c.Reserved() != 1 {
		t.Fatalf("free=%d reserved=%d", c.Free(), c.Reserved())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Unreserve beyond reserved did not panic")
		}
	}()
	c.Unreserve(2)
}

func TestOutOfOrderDeposit(t *testing.T) {
	c := mustNew(t, 10, 1)
	c.Reserve(4)
	c.Deposit(0, 2) // gap: 0,1 missing
	c.Deposit(0, 3)
	if c.Available(0) != 0 {
		t.Fatalf("available with gap = %d, want 0", c.Available(0))
	}
	c.Deposit(0, 0)
	if c.Available(0) != 1 {
		t.Fatalf("available = %d, want 1", c.Available(0))
	}
	c.Deposit(0, 1) // fills the gap: 0..3 all contiguous
	if c.Available(0) != 4 {
		t.Fatalf("available = %d, want 4", c.Available(0))
	}
	if err := c.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleDepositPanics(t *testing.T) {
	c := mustNew(t, 10, 1)
	c.Reserve(3)
	c.Deposit(0, 0)
	for _, idx := range []int{0, 2} {
		if idx == 2 {
			c.Deposit(0, 2)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("double deposit of %d did not panic", idx)
				}
			}()
			c.Deposit(0, idx)
		}()
	}
}

func TestDepositWithoutReservationPanics(t *testing.T) {
	c := mustNew(t, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("deposit without reservation did not panic")
		}
	}()
	c.Deposit(0, 0)
}

func TestConsumeEmptyPanics(t *testing.T) {
	c := mustNew(t, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("consume of empty run did not panic")
		}
	}()
	c.Consume(0)
}

func TestCounters(t *testing.T) {
	c := mustNew(t, 10, 1)
	c.Reserve(5)
	for i := 0; i < 5; i++ {
		c.Deposit(0, i)
	}
	for i := 0; i < 3; i++ {
		c.Consume(0)
	}
	if c.Deposits() != 5 || c.Consumed() != 3 {
		t.Fatalf("deposits=%d consumed=%d", c.Deposits(), c.Consumed())
	}
	if c.PeakOccupied() != 5 {
		t.Fatalf("peak = %d", c.PeakOccupied())
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	c := mustNew(t, Unlimited, 3)
	if !c.Reserve(1 << 30) {
		t.Fatal("huge reserve failed on unlimited cache")
	}
	if err := c.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestAllOrDemandPolicy(t *testing.T) {
	c := mustNew(t, 10, 1)
	a := AllOrDemand.Admit(c, 8)
	if !a.Full || a.Blocks != 8 {
		t.Fatalf("fit case: %+v", a)
	}
	c.Reserve(7)
	a = AllOrDemand.Admit(c, 8)
	if a.Full || a.Blocks != 1 {
		t.Fatalf("no-fit case: %+v, want demand only", a)
	}
}

func TestGreedyPolicy(t *testing.T) {
	c := mustNew(t, 10, 1)
	c.Reserve(7)
	a := Greedy.Admit(c, 8)
	if a.Full || a.Blocks != 3 {
		t.Fatalf("greedy partial: %+v, want 3 blocks", a)
	}
	c.Reserve(3)
	a = Greedy.Admit(c, 8)
	if a.Full || a.Blocks != 1 {
		t.Fatalf("greedy full cache: %+v, want demand block", a)
	}
}

func TestAdmitWantValidation(t *testing.T) {
	c := mustNew(t, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Admit(0) did not panic")
		}
	}()
	AllOrDemand.Admit(c, 0)
}

func TestPolicyStrings(t *testing.T) {
	if AllOrDemand.String() != "all-or-demand" || Greedy.String() != "greedy" {
		t.Fatal("policy strings wrong")
	}
}

// TestInvariantUnderRandomOps drives the cache with a random but legal
// operation sequence and checks the structural invariant throughout.
func TestInvariantUnderRandomOps(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		const k = 4
		c, err := New(12, k)
		if err != nil {
			return false
		}
		nextIdx := make([]int, k)  // next index to deposit per run
		inflight := make([]int, k) // reserved-but-not-deposited per run
		for _, op := range ops {
			run := int(op) % k
			switch (op / 4) % 3 {
			case 0: // reserve one block for run
				if c.Reserve(1) {
					inflight[run]++
				}
			case 1: // deposit next block if one is in flight
				if inflight[run] > 0 {
					c.Deposit(run, nextIdx[run])
					nextIdx[run]++
					inflight[run]--
				}
			case 2: // consume if available
				if c.Available(run) > 0 {
					c.Consume(run)
				}
			}
			if err := c.Invariant(); err != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCapacityAccessor(t *testing.T) {
	c := mustNew(t, 17, 3)
	if c.Capacity() != 17 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
	if AdmissionPolicy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestInvariantViolationsDetected(t *testing.T) {
	// Drive the cache into internally inconsistent states through its
	// unexported fields to prove Invariant actually detects them.
	c := mustNew(t, 10, 2)
	c.Reserve(2)
	c.Deposit(0, 0)
	c.resident = 5 // lie
	if c.Invariant() == nil {
		t.Fatal("resident mismatch not detected")
	}
	c = mustNew(t, 10, 2)
	c.runs[0].nextConsume = 3
	if c.Invariant() == nil {
		t.Fatal("consume-past-avail not detected")
	}
	c = mustNew(t, 10, 2)
	c.reserved = 99
	if c.Invariant() == nil {
		t.Fatal("overflow not detected")
	}
	c = mustNew(t, 10, 2)
	c.reserved = -1
	if c.Invariant() == nil {
		t.Fatal("negative reservation not detected")
	}
}
