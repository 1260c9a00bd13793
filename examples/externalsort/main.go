// External sort end-to-end: sort one million synthetic 80-byte records
// with the real external mergesort (run formation + loser-tree merge),
// verify the output, and replay the merge's actual block-depletion
// trace through the simulator to see what the paper's prefetching
// strategies buy on real data rather than the random depletion model.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/rng"
)

func main() {
	cfg := extsort.DefaultConfig() // 80-byte records, 4096-byte blocks
	cfg.MemoryBlocks = 400         // ~20400 records per memory load
	cfg.Formation = extsort.ReplacementSelection

	const records = 1_000_000
	r := rng.New(42)
	data := make([]byte, records*cfg.RecordSize)
	for i := 0; i < len(data)-8; i += 8 {
		binary.BigEndian.PutUint64(data[i:], r.Uint64())
	}

	in, err := extsort.NewSliceReader(data, cfg.RecordSize)
	if err != nil {
		log.Fatal(err)
	}
	out := extsort.NewCountingWriter(cfg)

	// Fan-in 0: every run merges in one pass, so one group holds the
	// whole merge.
	stats, err := extsort.Sort(cfg, 0, in, func() extsort.RunStore { return extsort.NewMemStore() }, out)
	if err != nil {
		log.Fatal(err)
	}
	if !out.Ordered() || out.Count() != records {
		log.Fatalf("verification failed: ordered=%v count=%d", out.Ordered(), out.Count())
	}

	fmt.Printf("sorted %d records via %s: %d runs (replacement selection\n",
		stats.Records, cfg.Formation, stats.Runs)
	fmt.Printf("runs average ~2x the %d-block memory)\n\n", cfg.MemoryBlocks)

	// Replay the real depletion trace under each strategy.
	base := core.Default()
	base.D = 5
	base.N = 10
	base.CacheBlocks = cache.Unlimited

	fmt.Println("merge-phase I/O time for the real trace (D=5, unsynchronized):")
	for _, s := range []struct {
		label string
		n     int
		inter bool
	}{
		{"no prefetch", 1, false},
		{"intra-run N=10", 10, false},
		{"inter+intra N=10", 10, true},
	} {
		c := base
		c.N = s.n
		c.InterRun = s.inter
		res, err := extsort.SimulateMerge(stats.Passes[0].Groups[0], c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %8.2f s  (%.2f disks busy on average)\n",
			s.label, res.TotalTime.Seconds(), res.MeanConcurrencyWhenBusy)
	}
}
