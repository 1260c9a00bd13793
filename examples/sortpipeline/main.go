// Sort pipeline end to end: plan a memory-constrained multi-pass sort
// with the simulation-calibrated planner, execute the same sort for
// real with bounded fan-in, and compare the planner's estimate against
// the simulated I/O time of the real merge passes.
//
// This closes the loop between every layer of the library: the planner
// (internal/plan), the real external sorter (internal/extsort) and the
// paper's I/O model (internal/core).
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/rng"
)

func main() {
	// A sort that cannot finish in one merge: 200k records in 4000
	// blocks, with only 40 blocks of memory -> ~100 initial runs, while
	// the cache supports a fan-in well below that.
	sortCfg := extsort.DefaultConfig()
	sortCfg.MemoryBlocks = 40

	const records = 200_000
	r := rng.New(7)
	data := make([]byte, records*sortCfg.RecordSize)
	for i := 0; i+8 <= len(data); i += 8 {
		binary.BigEndian.PutUint64(data[i:], r.Uint64())
	}
	totalBlocks := int64(records / sortCfg.RecordsPerBlock())

	// 1. Plan it.
	job := plan.Job{
		TotalBlocks:  totalBlocks,
		MemoryBlocks: sortCfg.MemoryBlocks,
		D:            5,
		InterRun:     true,
	}
	p, err := plan.BuildCalibrated(job, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p)

	// 2. Execute the real sort with the planned fan-in.
	fanIn := p.Passes[0].FanIn
	in, err := extsort.NewSliceReader(data, sortCfg.RecordSize)
	if err != nil {
		log.Fatal(err)
	}
	out := extsort.NewCountingWriter(sortCfg)
	res, err := extsort.Sort(sortCfg, fanIn, in,
		func() extsort.RunStore { return extsort.NewMemStore() }, out)
	if err != nil {
		log.Fatal(err)
	}
	if !out.Ordered() || out.Count() != records {
		log.Fatalf("sort verification failed: ordered=%v count=%d", out.Ordered(), out.Count())
	}
	fmt.Printf("\nreal sort: %d records, %d passes at fan-in %d, output verified sorted\n",
		res.Records, len(res.Passes), fanIn)

	// 3. Time the real merge passes under the planned strategy.
	base := core.Default()
	base.D = job.D
	base.N = p.Passes[0].N
	base.InterRun = p.Passes[0].InterRun
	base.CacheBlocks = job.MemoryBlocks
	perPass, total, err := extsort.SimulatePasses(res, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplanner estimate vs simulated real passes:")
	for i, pt := range perPass {
		est := "-"
		if i < len(p.Passes) {
			est = fmt.Sprintf("%.1f s", p.Passes[i].Estimated.Seconds())
		}
		fmt.Printf("  pass %d: estimated %-8s  real trace simulated %.1f s\n",
			i, est, pt.Seconds())
	}
	fmt.Printf("  total merge I/O: %.1f s (planner estimated %.1f s)\n",
		total.Seconds(), p.Estimated.Seconds())
}
