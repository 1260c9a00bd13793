package analysis_test

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/disk"
)

// ExampleModel reproduces the paper's §3 spot calculations for k=25
// runs of 1000 blocks, each through the closed form Predict picks.
func ExampleModel() {
	p := disk.PaperParams()
	predict := func(s analysis.Shape) float64 { return analysis.Predict(p, s).Seconds() }

	fmt.Printf("eq1 single-disk no-prefetch: %.1f s\n",
		predict(analysis.Shape{K: 25, D: 1, N: 1, BlocksPerRun: 1000}))
	fmt.Printf("eq4 sync intra, 5 disks:     %.1f s\n",
		predict(analysis.Shape{K: 25, D: 5, N: 10, BlocksPerRun: 1000, Synchronized: true}))
	fmt.Printf("eq5 sync inter, 5 disks:     %.1f s\n",
		predict(analysis.Shape{K: 25, D: 5, N: 10, BlocksPerRun: 1000, InterRun: true, Synchronized: true}))
	fmt.Printf("transfer floor kTB/D:        %.1f s\n",
		predict(analysis.Shape{K: 25, D: 5, N: 10, BlocksPerRun: 1000, InterRun: true}))
	// Output:
	// eq1 single-disk no-prefetch: 339.8 s
	// eq4 sync intra, 5 disks:     88.6 s
	// eq5 sync inter, 5 disks:     20.5 s
	// transfer floor kTB/D:        13.3 s
}

// ExampleUrnGameExpectedLength evaluates the paper's concurrency law:
// unsynchronized intra-run prefetching overlaps only ~√(πD/2) disks.
func ExampleUrnGameExpectedLength() {
	for _, d := range []int{5, 10, 20} {
		fmt.Printf("D=%2d: %.2f of %d disks busy\n", d, analysis.UrnGameExpectedLength(d), d)
	}
	// Output:
	// D= 5: 2.51 of 5 disks busy
	// D=10: 3.66 of 10 disks busy
	// D=20: 5.29 of 20 disks busy
}

// ExampleMarkovChain solves the companion TR's abstract model: D disks
// with one run each, comparing the two cache admission policies by
// steady-state I/O parallelism.
func ExampleMarkovChain() {
	for _, pol := range []analysis.MarkovPolicy{analysis.AllOrNothing, analysis.GreedyFill} {
		chain, err := analysis.NewMarkovChain(5, 20, pol)
		if err != nil {
			panic(err)
		}
		par, _, err := chain.Solve(1e-10, 8000)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s %.3f disks per fetch\n", pol, par)
	}
	// Output:
	// all-or-nothing 3.255 disks per fetch
	// greedy-fill    3.225 disks per fetch
}
