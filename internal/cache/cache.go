// Package cache models the RAM-based disk cache of capacity C blocks
// that stands between the merge CPU and the disks.
//
// The cache tracks, per run, how many blocks are resident and
// consumable in merge order. Space is reserved when a fetch is issued
// (so concurrent prefetches can never oversubscribe RAM), converted to
// a resident block when the disk delivers it, and freed when the merge
// consumes the block. Deposits carry the run-relative block index so
// out-of-order arrival (striped layouts, SSTF scheduling) still exposes
// only the contiguous prefix to the merge, which consumes strictly in
// run order.
//
// The admission policies from the paper live here too: AllOrDemand
// prefetches from all disks only when the whole batch fits (the policy
// the paper adopts, based on the Markov analysis of its companion
// technical report), and Greedy fills whatever space is available (the
// rejected alternative, kept for the ablation bench).
package cache

import "fmt"

// Unlimited configures a cache with no capacity constraint.
const Unlimited = int(^uint(0) >> 1)

type runState struct {
	nextConsume int          // next run block index the merge will take
	nextAvail   int          // first index not yet contiguously resident
	arrived     map[int]bool // out-of-order residents beyond nextAvail
}

// Cache is the block cache. It is not safe for concurrent use; in the
// simulator it is touched only from kernel context.
type Cache struct {
	capacity int
	resident int // blocks consumable or waiting past a gap
	reserved int // blocks with space claimed but not yet delivered

	runs []runState

	// Statistics.
	deposits     int64
	consumed     int64
	peakOccupied int
}

// New returns a cache of the given capacity (in blocks) serving k runs.
// capacity must be at least k — the merge needs one resident block per
// run, exactly as in the Kwan–Baer baseline. Use Unlimited for an
// unconstrained cache.
func New(capacity, k int) (*Cache, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cache: k = %d", k)
	}
	if capacity < k {
		return nil, fmt.Errorf("cache: capacity %d < k = %d (need one block per run)", capacity, k)
	}
	c := &Cache{capacity: capacity, runs: make([]runState, k)}
	for i := range c.runs {
		c.runs[i].arrived = make(map[int]bool)
	}
	return c, nil
}

// Capacity returns the configured capacity in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// Free returns the unclaimed space in blocks.
func (c *Cache) Free() int { return c.capacity - c.resident - c.reserved }

// Occupied returns resident plus reserved blocks.
func (c *Cache) Occupied() int { return c.resident + c.reserved }

// Resident returns the number of delivered, unconsumed blocks.
func (c *Cache) Resident() int { return c.resident }

// Reserved returns the number of in-flight claimed blocks.
func (c *Cache) Reserved() int { return c.reserved }

// PeakOccupied returns the high-water mark of Occupied.
func (c *Cache) PeakOccupied() int { return c.peakOccupied }

// Deposits returns the total number of blocks delivered.
func (c *Cache) Deposits() int64 { return c.deposits }

// Consumed returns the total number of blocks consumed.
func (c *Cache) Consumed() int64 { return c.consumed }

// Available returns how many blocks of run r the merge could consume
// right now (the contiguous resident prefix).
func (c *Cache) Available(r int) int {
	rs := &c.runs[r]
	return rs.nextAvail - rs.nextConsume
}

// NextToConsume returns the run-relative index of the block the merge
// will take next from run r.
func (c *Cache) NextToConsume(r int) int { return c.runs[r].nextConsume }

// Reserve claims space for n in-flight blocks. It reports whether the
// claim succeeded; on false the cache is unchanged.
func (c *Cache) Reserve(n int) bool {
	if n < 0 {
		panic("cache: Reserve with negative n")
	}
	if c.Free() < n {
		return false
	}
	c.reserved += n
	if occ := c.Occupied(); occ > c.peakOccupied {
		c.peakOccupied = occ
	}
	return true
}

// Unreserve releases space claimed by Reserve that will not be used
// (e.g. a fetch clamped at end of run after the reservation).
func (c *Cache) Unreserve(n int) {
	if n < 0 || n > c.reserved {
		panic(fmt.Sprintf("cache: Unreserve(%d) with reserved=%d", n, c.reserved))
	}
	c.reserved -= n
}

// Deposit converts one reserved slot into a resident block: run r's
// block idx has been delivered by a disk. Depositing without a prior
// reservation, depositing a block at or before the consume point, or
// depositing the same block twice panics — each indicates an engine bug.
func (c *Cache) Deposit(r, idx int) {
	if c.reserved <= 0 {
		panic("cache: Deposit without reservation")
	}
	rs := &c.runs[r]
	if idx < rs.nextAvail {
		panic(fmt.Sprintf("cache: run %d block %d deposited twice (nextAvail=%d)", r, idx, rs.nextAvail))
	}
	// Fast path: in-order arrival with no out-of-order backlog — the
	// overwhelmingly common case under contiguous placement — touches no
	// map at all.
	if idx == rs.nextAvail && len(rs.arrived) == 0 {
		rs.nextAvail++
		c.reserved--
		c.resident++
		c.deposits++
		return
	}
	if rs.arrived[idx] {
		panic(fmt.Sprintf("cache: run %d block %d deposited twice", r, idx))
	}
	c.reserved--
	c.resident++
	c.deposits++
	if idx == rs.nextAvail {
		rs.nextAvail++
		for rs.arrived[rs.nextAvail] {
			delete(rs.arrived, rs.nextAvail)
			rs.nextAvail++
		}
	} else {
		rs.arrived[idx] = true
	}
}

// Consume removes the leading block of run r, freeing its space. It
// panics if no block of r is available.
func (c *Cache) Consume(r int) {
	rs := &c.runs[r]
	if rs.nextAvail == rs.nextConsume {
		panic(fmt.Sprintf("cache: Consume on run %d with no available block", r))
	}
	rs.nextConsume++
	c.resident--
	c.consumed++
}

// Invariant checks internal consistency; tests call it after operation
// sequences. It returns an error rather than panicking so property
// tests can report it.
func (c *Cache) Invariant() error {
	total := 0
	for i := range c.runs {
		rs := &c.runs[i]
		if rs.nextConsume > rs.nextAvail {
			return fmt.Errorf("run %d: consume point %d past avail %d", i, rs.nextConsume, rs.nextAvail)
		}
		total += rs.nextAvail - rs.nextConsume + len(rs.arrived)
	}
	if total != c.resident {
		return fmt.Errorf("resident = %d but per-run total = %d", c.resident, total)
	}
	if c.resident < 0 || c.reserved < 0 {
		return fmt.Errorf("negative occupancy: resident=%d reserved=%d", c.resident, c.reserved)
	}
	if c.Occupied() > c.capacity {
		return fmt.Errorf("occupied %d exceeds capacity %d", c.Occupied(), c.capacity)
	}
	return nil
}
