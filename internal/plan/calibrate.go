package plan

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// BuildCalibrated plans like Build, but scores every candidate
// (prefetch depth, fan-in, strategy) with short simulations instead of
// the closed forms, choosing the strategy per pass.
//
// The analytic expressions assume the paper's operating regime —
// several runs per disk and a cache generous relative to the kN + DN
// working set. Multi-pass plans leave that regime: later passes merge
// few, very long runs, where the inter-run policy force-feeds the one
// or two runs on each disk until they hoard the cache, the success
// ratio collapses, and plain intra-run prefetching (whose kN cache
// requirement the paper proves sufficient for a success ratio of 1,
// independent of run length) wins. Calibration discovers this
// automatically; it is the planner's main reason to exist.
//
// The returned plan's pass estimates are the scaled probe results.
func BuildCalibrated(job Job, seed uint64) (Plan, error) {
	probes := &probeCache{seed: seed, rates: make(map[probeKey]sim.Time)}
	return schedule(job, calibratedCandidates, probes.rate)
}

// calibratedCandidates lists intra-run, then inter-run when the job
// allows it, at a fixed ladder of depths. The probes measure the
// success ratio instead of assuming it, so each fan-in is the largest
// whose kN (+ DN for inter-run) working set fits the whole cache.
func calibratedCandidates(job Job) []candidate {
	strategies := []bool{false}
	if job.InterRun {
		strategies = []bool{false, true}
	}
	var cands []candidate
	c := job.MemoryBlocks
	for _, inter := range strategies {
		for _, n := range []int{1, 2, 4, 8, 16, 24, 32} {
			fanIn := c / n
			if inter {
				fanIn = (c - job.D*n) / n
			}
			if fanIn >= 2 {
				cands = append(cands, candidate{n: n, fanIn: fanIn, inter: inter})
			}
		}
	}
	return cands
}

// probeCache memoizes per-block merge rates measured by short
// simulations, keyed by pass shape.
type probeCache struct {
	seed  uint64
	rates map[probeKey]sim.Time
}

type probeKey struct {
	fanIn, n, length int
	inter            bool
}

// probeLength picks the simulated run length for a pass of fanIn runs
// of passLen blocks: long enough to reach the cache's steady state
// (inter-run degradation develops over thousands of blocks), short
// enough to keep the probe affordable, and within the disk geometry.
func (j Job) probeLength(fanIn int, passLen int64) int {
	const budget = 300_000 // total probe blocks
	return max(min(int(passLen), budget/fanIn, j.maxRunBlocks(fanIn)), 50)
}

// rate measures (or recalls) the per-block rate of one pass shape.
func (pc *probeCache) rate(job Job, fanIn, n int, inter bool, passLen int64) (sim.Time, error) {
	length := job.probeLength(fanIn, passLen)
	key := probeKey{fanIn: fanIn, n: n, length: length, inter: inter}
	if r, ok := pc.rates[key]; ok {
		return r, nil
	}
	res, err := core.Run(job.passConfig(fanIn, min(n, length), length, inter, pc.seed))
	if err != nil {
		return 0, err
	}
	//detlint:allow simunits deliberate ms-per-block rate: the conversion is the dimensional bridge
	r := res.TotalTime / sim.Time(res.MergedBlocks)
	pc.rates[key] = r
	return r, nil
}
