// Package plan builds multi-pass external mergesort plans on top of the
// paper's single-merge model. The paper analyses one merge pass; a
// whole sort first forms ⌈B/M⌉ runs and then merges them in one or more
// passes, with the merge order (fan-in) limited by the cache: a fan-in
// of k with prefetch depth N needs roughly kN blocks of cache, plus DN
// for inter-run batches. This package searches (N, fan-in) pairs for
// the cheapest plan, pricing each pass with the paper's analytic
// expressions (Build) or with short simulations (BuildCalibrated), and
// can validate any pass against the simulator.
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

// candidate is one point of a planner's search: merge every pass at
// prefetch depth n with up to fanIn runs per group, inter-run or not.
type candidate struct {
	n, fanIn int
	inter    bool
}

// rateFunc prices one pass of job: the per-block time of merging
// groups of fanIn runs of runBlocks blocks each at depth n.
type rateFunc func(job Job, fanIn, n int, inter bool, runBlocks int64) (sim.Time, error)

// Build searches prefetch depths and fan-ins for the cheapest plan,
// pricing every pass with the paper's closed forms.
func Build(job Job) (Plan, error) {
	return schedule(job, analyticCandidates, passRate)
}

// analyticCandidates lists one candidate per depth N, at the largest
// fan-in the cache holds. Intra-run prefetching needs exactly kN
// blocks (the paper shows kN is necessary and sufficient for a success
// ratio of 1). Inter-run refills land on random runs, so per-run
// buffers random-walk well above their mean; measured against the
// figure-3.6 sweeps, the success ratio saturates near c ≈ 4·(kN + DN),
// and passRate assumes a saturated ratio, so the planner stays inside
// that region.
func analyticCandidates(job Job) []candidate {
	var cands []candidate
	c := job.MemoryBlocks
	for n := 1; n <= c; n++ {
		fanIn := c / n
		if job.InterRun {
			fanIn = (c/4 - job.D*n) / n
		}
		if fanIn < 2 {
			break
		}
		cands = append(cands, candidate{n: n, fanIn: fanIn, inter: job.InterRun})
	}
	return cands
}

// passRate prices one pass analytically: every data block is read at
// the per-block rate of the paper's equations (eq 5 for inter-run, eq 4
// for intra-run, both synchronized — a deliberately conservative
// bound), with the model's run length m set to the data size over the
// fan-in, in cylinders.
func passRate(job Job, fanIn, n int, inter bool, _ int64) (sim.Time, error) {
	m := analysis.FromConfig(job.Disk, fanIn, min(job.D, fanIn), n, 0)
	m.M = float64(job.TotalBlocks) / float64(fanIn) / float64(job.Disk.BlocksPerCylinder())
	if inter {
		return m.Eq5InterMultiDiskSync(), nil
	}
	return m.Eq4IntraMultiDiskSync(), nil
}

// schedule fills in the paper's drive when job.Disk is zero, validates
// the job, prices every candidate's whole multi-pass schedule with rate
// and returns the cheapest; the first of equally cheap candidates
// wins. Candidates are listed only when the job needs a merge.
func schedule(job Job, candidates func(Job) []candidate, rate rateFunc) (Plan, error) {
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
	plan.Estimated = sim.Time(math.Inf(1))
	for _, cand := range candidates(job) {
		passes, total, err := walk(job, initialRuns, cand, rate)
		if err != nil {
			return Plan{}, err
		}
		if total < plan.Estimated {
			plan.Passes, plan.Estimated = passes, total
		}
	}
	if plan.Passes == nil {
		return Plan{}, fmt.Errorf("plan: memory %d too small for any merge fan-in", job.MemoryBlocks)
	}
	return plan, nil
}

// walk lays out the passes that merge initialRuns runs down to one
// under cand, pricing each with rate, and returns them with their
// total. All groups of a pass together read every data block once.
func walk(job Job, initialRuns int, cand candidate, rate rateFunc) ([]Pass, sim.Time, error) {
	var passes []Pass
	var total sim.Time
	runs := initialRuns
	runBlocks := (job.TotalBlocks + int64(initialRuns) - 1) / int64(initialRuns)
	for runs > 1 {
		f := min(cand.fanIn, runs)
		perBlock, err := rate(job, f, cand.n, cand.inter, runBlocks)
		if err != nil {
			return nil, 0, err
		}
		merges := (runs + f - 1) / f
		p := Pass{
			Index:       len(passes),
			RunsIn:      runs,
			FanIn:       f,
			Merges:      merges,
			RunsOut:     merges,
			RunBlocksIn: runBlocks,
			N:           cand.n,
			InterRun:    cand.inter,
			Estimated:   sim.Time(float64(perBlock) * float64(job.TotalBlocks)),
		}
		passes = append(passes, p)
		total += p.Estimated
		runs = merges
		runBlocks *= int64(f)
	}
	return passes, total, nil
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
	// Cap the simulated group to the disk geometry. Shorter simulated
	// runs shorten seeks a little, so the scaled estimate is marginally
	// optimistic for very long runs; the transfer-dominated regimes the
	// planner picks make this a second-order effect.
	runBlocks := min(pass.RunBlocksIn, int64(p.Job.maxRunBlocks(pass.FanIn)))
	cfg := p.Job.passConfig(pass.FanIn, pass.N, int(runBlocks), pass.InterRun, seed)
	res, err := core.Run(cfg)
	if err != nil {
		return 0, core.Result{}, err
	}
	// Scale the simulated per-block rate to the whole pass: all groups
	// together process every data block exactly once.
	perBlock := float64(res.TotalTime) / float64(res.MergedBlocks)
	return sim.Time(perBlock * float64(p.Job.TotalBlocks)), res, nil
}

// maxRunBlocks is the longest run a simulated group of fanIn runs can
// have: ⌈fanIn/D⌉ of them share one disk's geometry.
func (j Job) maxRunBlocks(fanIn int) int {
	d := min(j.D, fanIn)
	return j.Disk.CapacityBlocks() / ((fanIn + d - 1) / d)
}

// passConfig is the simulated merge group of one pass: fanIn runs of
// runBlocks blocks on min(D, fanIn) disks at depth n, with the job's
// memory as the cache.
func (j Job) passConfig(fanIn, n, runBlocks int, inter bool, seed uint64) core.Config {
	cfg := core.Default()
	cfg.K = fanIn
	cfg.D = min(j.D, fanIn)
	cfg.BlocksPerRun = runBlocks
	cfg.N = n
	cfg.InterRun = inter
	cfg.Disk = j.Disk
	cfg.CacheBlocks = j.MemoryBlocks
	cfg.Seed = seed
	return cfg
}
