// Capacity planning: the question a practitioner asks of the paper —
// "how much cache do I need, and what prefetch depth N should I use,
// to merge my k runs from D disks within a time budget?"
//
// For each candidate cache size this example scans prefetch depths
// around the analytic knee, keeps the best, and reports which cache
// sizes meet the budget — exactly the trade-off surface of the paper's
// figure 3.5.
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
)

func main() {
	const (
		k      = 50   // runs to merge
		d      = 5    // input disks
		budget = 45.0 // seconds allowed for the merge phase
	)

	base := core.Default()
	base.K = k
	base.D = d
	base.InterRun = true

	// Unsynchronized inter-run prefetching has only the kTB/D floor.
	shape := analysis.Shape{K: k, D: d, N: 1, BlocksPerRun: base.BlocksPerRun, InterRun: true}
	floor := analysis.Predict(base.Disk, shape).Seconds()
	fmt.Printf("merge of %d runs on %d disks; transfer floor %.1f s; budget %.1f s\n\n",
		k, d, floor, budget)
	fmt.Printf("%10s  %4s  %10s  %9s\n", "cache", "N", "total (s)", "success")

	for _, cacheBlocks := range []int{100, 200, 300, 400, 600, 800, 1200, 1600} {
		// Scan prefetch depths around the analytic knee and keep the
		// fastest — the paper's observation is that each cache size has
		// its own optimal N.
		knee := shape.OptimalNForCache(cacheBlocks)
		bestN, bestTime, bestSuccess := 0, 0.0, 0.0
		for _, n := range []int{1, knee / 2, knee, knee + knee/2, 2 * knee} {
			if n < 1 || (bestN != 0 && n == bestN) {
				continue
			}
			cfg := base
			cfg.N = n
			cfg.CacheBlocks = cacheBlocks
			agg, err := core.RunTrials(cfg, 3)
			if err != nil {
				log.Fatal(err)
			}
			if bestN == 0 || agg.TotalTime.Mean() < bestTime {
				bestN, bestTime, bestSuccess = n, agg.TotalTime.Mean(), agg.SuccessRatio.Mean()
			}
		}
		mark := ""
		if bestTime <= budget {
			mark = "  <- meets budget"
		}
		fmt.Printf("%10d  %4d  %10.1f  %9.3f%s\n",
			cacheBlocks, bestN, bestTime, bestSuccess, mark)
	}

	fmt.Println("\nlarger caches admit larger N: seek and latency amortize away")
	fmt.Println("and the merge time approaches the transfer floor, exactly as in")
	fmt.Println("figure 3.5 of the paper.")
}
