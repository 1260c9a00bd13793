// Package plan builds multi-pass external mergesort plans on top of the
// paper's single-merge model. The paper analyses one merge pass; a
// whole sort first forms ⌈B/M⌉ runs and then merges them in one or more
// passes, with the merge order (fan-in) limited by the cache: a fan-in
// of k with prefetch depth N needs roughly kN blocks of cache, plus DN
// for inter-run batches. This package searches (N, fan-in) pairs for
// the cheapest plan under the paper's analytic expressions, and can
// validate any pass against the simulator.
package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
)

// Job describes a sort to plan.
type Job struct {
	// TotalBlocks is the data size in blocks.
	TotalBlocks int64
	// MemoryBlocks is the RAM available, in blocks — the run-formation
	// load size and the merge-phase cache capacity C.
	MemoryBlocks int
	// D is the number of input disks per pass (output goes to a
	// separate array, per the paper's model).
	D int
	// InterRun selects combined inter+intra prefetching for the merge
	// passes; otherwise intra-run only.
	InterRun bool
	// Disk gives the drive parameters (default: the paper's).
	Disk disk.Params
}

// Validate reports the first job error, or nil.
func (j Job) Validate() error {
	switch {
	case j.TotalBlocks <= 0:
		return fmt.Errorf("plan: TotalBlocks = %d", j.TotalBlocks)
	case j.MemoryBlocks < 2:
		return fmt.Errorf("plan: MemoryBlocks = %d (need at least 2 for a merge)", j.MemoryBlocks)
	case j.D <= 0:
		return fmt.Errorf("plan: D = %d", j.D)
	}
	return j.Disk.Validate()
}

// Pass is one merge pass of a plan.
type Pass struct {
	Index  int
	RunsIn int
	// FanIn is the merge order: each group merges up to FanIn runs.
	FanIn   int
	Merges  int
	RunsOut int
	// RunBlocksIn is the (average) input run length in blocks.
	RunBlocksIn int64
	// N is the intra-run prefetch depth the pass uses.
	N int
	// InterRun reports whether the pass uses inter-run prefetching.
	InterRun bool
	// Estimated is the analytic time for the whole pass.
	Estimated sim.Time
}

// Plan is a full multi-pass schedule.
type Plan struct {
	Job         Job
	InitialRuns int
	Passes      []Pass
	// Estimated is the analytic total over all merge passes (run
	// formation I/O is one additional read+write sweep, reported
	// separately as FormationTime).
	Estimated sim.Time
	// FormationTime estimates the run-formation sweep: every block is
	// read once and written once sequentially.
	FormationTime sim.Time
}

// passTime estimates one pass analytically: merging groups of fanIn
// runs with depth N, every data block is read once at the per-block
// rate of the paper's equations (eq 5 for inter-run, eq 4 for
// intra-run, both synchronized — a deliberately conservative bound).
func passTime(job Job, fanIn, n int, blocks int64) sim.Time {
	d := job.D
	if d > fanIn {
		d = fanIn
	}
	m := analysis.FromConfig(job.Disk, fanIn, d, n, int(min(int64(job.MemoryBlocks), blocks)))
	// The analytic per-block rate uses m = run length in cylinders;
	// recompute with the true run length for this pass.
	m.M = float64(blocks) / float64(fanIn) / float64(job.Disk.BlocksPerCylinder())
	var perBlock sim.Time
	if job.InterRun {
		perBlock = m.Eq5InterMultiDiskSync()
	} else {
		perBlock = m.Eq4IntraMultiDiskSync()
	}
	return perBlock * sim.Time(blocks)
}

// Build searches prefetch depths and fan-ins for the cheapest plan.
func Build(job Job) (Plan, error) {
	if job.Disk.BlockBytes == 0 {
		job.Disk = disk.PaperParams()
	}
	if err := job.Validate(); err != nil {
		return Plan{}, err
	}
	initialRuns := int((job.TotalBlocks + int64(job.MemoryBlocks) - 1) / int64(job.MemoryBlocks))
	plan := Plan{Job: job, InitialRuns: initialRuns}

	// Run formation: one sequential read + write sweep of the data.
	seq := job.Disk.TransferPerBlock * sim.Time(job.TotalBlocks)
	plan.FormationTime = 2 * seq / sim.Time(job.D)

	if initialRuns <= 1 {
		return plan, nil // already sorted after formation
	}

	best := sim.Time(math.Inf(1))
	bestN := 0
	c := job.MemoryBlocks
	for n := 1; n <= c; n++ {
		fanIn := maxFanIn(job, c, n)
		if fanIn < 2 {
			break
		}
		if fanIn > initialRuns {
			fanIn = initialRuns
		}
		total := estimateSchedule(job, initialRuns, fanIn, n)
		if total < best {
			best = total
			bestN = n
		}
	}
	if bestN == 0 {
		return Plan{}, fmt.Errorf("plan: memory %d too small for any merge fan-in", c)
	}

	// Materialize the chosen schedule.
	fanIn := maxFanIn(job, c, bestN)
	runs := initialRuns
	runBlocks := (job.TotalBlocks + int64(initialRuns) - 1) / int64(initialRuns)
	idx := 0
	for runs > 1 {
		f := fanIn
		if f > runs {
			f = runs
		}
		merges := (runs + f - 1) / f
		p := Pass{
			Index:       idx,
			RunsIn:      runs,
			FanIn:       f,
			Merges:      merges,
			RunsOut:     merges,
			RunBlocksIn: runBlocks,
			N:           bestN,
			InterRun:    job.InterRun,
			Estimated:   passTime(job, f, bestN, job.TotalBlocks),
		}
		plan.Passes = append(plan.Passes, p)
		plan.Estimated += p.Estimated
		runs = merges
		runBlocks *= int64(f)
		idx++
	}
	return plan, nil
}

// maxFanIn bounds the merge order for a cache of c blocks at depth n.
// Intra-run prefetching needs exactly kN blocks (the paper shows kN is
// necessary and sufficient for a success ratio of 1). Inter-run
// refills land on random runs, so per-run buffers random-walk well
// above their mean; measured against the figure-3.6 sweeps, the
// success ratio saturates near c ≈ 4·(kN + DN), and the planner's
// analytic pass estimates assume a saturated ratio, so it plans inside
// that region.
func maxFanIn(job Job, c, n int) int {
	if job.InterRun {
		return (c/4 - job.D*n) / n
	}
	return c / n
}

// estimateSchedule returns the analytic total of merging initialRuns
// runs with the given fan-in and depth.
func estimateSchedule(job Job, initialRuns, fanIn, n int) sim.Time {
	var total sim.Time
	runs := initialRuns
	for runs > 1 {
		f := fanIn
		if f > runs {
			f = runs
		}
		total += passTime(job, f, n, job.TotalBlocks)
		runs = (runs + f - 1) / f
	}
	return total
}

// Passes returns the number of merge passes.
func (p Plan) NumPasses() int { return len(p.Passes) }

// String renders the plan as an aligned table.
func (p Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan: %d blocks, memory %d blocks, D=%d, initial runs %d\n",
		p.Job.TotalBlocks, p.Job.MemoryBlocks, p.Job.D, p.InitialRuns)
	fmt.Fprintf(&sb, "  formation sweep: %.1fs\n", p.FormationTime.Seconds())
	for _, pass := range p.Passes {
		strategy := "intra"
		if pass.InterRun {
			strategy = "inter+intra"
		}
		fmt.Fprintf(&sb, "  pass %d: %4d runs -> %4d (fan-in %d, N=%d, %s)  est %.1fs\n",
			pass.Index, pass.RunsIn, pass.RunsOut, pass.FanIn, pass.N, strategy, pass.Estimated.Seconds())
	}
	fmt.Fprintf(&sb, "  total merge estimate: %.1fs\n", p.Estimated.Seconds())
	return sb.String()
}

// SimulatePass validates one pass of the plan against the simulator.
// It simulates a single representative merge group at full fidelity
// and scales to the whole pass (per-block cost is group-size invariant
// once the group shape is fixed). Run lengths are capped so the group
// fits the disk geometry; time scales linearly with blocks, so the
// scaled estimate stays faithful.
func (p Plan) SimulatePass(i int, seed uint64) (sim.Time, core.Result, error) {
	if i < 0 || i >= len(p.Passes) {
		return 0, core.Result{}, fmt.Errorf("plan: pass %d of %d", i, len(p.Passes))
	}
	pass := p.Passes[i]
	d := p.Job.D
	if d > pass.FanIn {
		d = pass.FanIn
	}

	runBlocks := pass.RunBlocksIn
	// Cap the simulated group so ⌈fanIn/D⌉ runs fit one disk. Shorter
	// simulated runs shorten seeks a little, so the scaled estimate is
	// marginally optimistic for very long runs; the transfer-dominated
	// regimes the planner picks make this a second-order effect.
	perDisk := (pass.FanIn + d - 1) / d
	maxRun := int64(p.Job.Disk.CapacityBlocks() / perDisk)
	if runBlocks > maxRun {
		runBlocks = maxRun
	}

	cfg := core.Default()
	cfg.K = pass.FanIn
	cfg.D = d
	cfg.BlocksPerRun = int(runBlocks)
	cfg.N = pass.N
	cfg.InterRun = pass.InterRun
	cfg.Disk = p.Job.Disk
	cfg.CacheBlocks = p.Job.MemoryBlocks
	cfg.Seed = seed
	res, err := core.Run(cfg)
	if err != nil {
		return 0, core.Result{}, err
	}
	// Scale the simulated per-block rate to the whole pass: all groups
	// together process every data block exactly once.
	perBlock := float64(res.TotalTime) / float64(res.MergedBlocks)
	return sim.Time(perBlock * float64(p.Job.TotalBlocks)), res, nil
}
