// Quickstart: simulate the paper's headline configuration — merging
// k=25 sorted runs of 1000 blocks from D=5 disks — under the three
// strategies, and print total merge time alongside the closed-form
// predictions.
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
)

func main() {
	// Start from the paper's defaults: calibrated RA-series disk,
	// round-robin run placement, all-or-demand admission.
	base := core.Default() // k=25, D=5, N=1
	shape := analysis.Shape{K: base.K, D: base.D, N: base.N, BlocksPerRun: base.BlocksPerRun}

	fmt.Println("Merging 25 runs x 1000 blocks from 5 disks (unsynchronized):")

	// 1. The Kwan-Baer baseline: fetch only the demand block (eq 3).
	res, err := core.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  no prefetch:        %6.1f s   (eq 3 predicts %.1f)\n",
		res.TotalTime.Seconds(), analysis.Predict(base.Disk, shape).Seconds())

	// 2. Intra-run prefetching: N=10 contiguous blocks per fetch.
	intra := base
	intra.N = 10
	intra.CacheBlocks = intra.DefaultCache() // kN = 250 blocks
	res, err = core.Run(intra)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  intra-run, N=10:    %6.1f s   (overlap %.2f disks)\n",
		res.TotalTime.Seconds(), res.MeanConcurrencyWhenBusy)

	// 3. Combined inter+intra prefetching with an ample cache.
	inter := intra
	inter.InterRun = true
	inter.CacheBlocks = cache.Unlimited
	res, err = core.Run(inter)
	if err != nil {
		log.Fatal(err)
	}
	shape.N, shape.InterRun = inter.N, true
	fmt.Printf("  inter+intra, N=10:  %6.1f s   (overlap %.2f disks, floor kTB/D = %.1f)\n",
		res.TotalTime.Seconds(), res.MeanConcurrencyWhenBusy, analysis.Predict(base.Disk, shape).Seconds())
}
