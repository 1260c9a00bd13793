// Command extsort runs a real external mergesort on synthetic records,
// verifies the output, and then replays the merge's block-depletion
// trace through the paper's I/O simulator to report what the merge
// phase would cost under each prefetching strategy.
//
// Example:
//
//	extsort -records 200000 -memory-blocks 100 -d 5 -n 10
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/rng"
)

// maxInputBytes bounds the synthesized input's byte count. The command
// builds its whole input in memory before sorting it, so a larger input
// could not be allocated; the bound also keeps the byte count in int.
const maxInputBytes = 1 << 40 // 1 TiB

func main() {
	var (
		records   = flag.Int("records", 100000, "number of synthetic records to sort")
		recSize   = flag.Int("record-size", 80, "record size in bytes")
		blockSize = flag.Int("block-size", 4096, "block size in bytes")
		memBlocks = flag.Int("memory-blocks", 100, "run-formation memory in blocks")
		rs        = flag.Bool("rs", false, "use replacement selection instead of load-sort")
		d         = flag.Int("d", 5, "disks for the simulated merge")
		n         = flag.Int("n", 10, "intra-run prefetch depth for the simulated merge")
		cacheSize = flag.Int("cache", -1, "simulated cache blocks (-1 = unlimited)")
		seed      = flag.Uint64("seed", 1, "random seed for the synthetic input")
		fanIn     = flag.Int("fanin", 0, "multi-pass mode: merge at most this many runs per group (0 = single merge)")
		storeKind = flag.String("store", "mem", "run storage: mem or file (spills runs to a temp dir, removed on exit)")
	)
	flag.Parse()

	cfg := extsort.DefaultConfig()
	cfg.RecordSize = *recSize
	cfg.BlockSize = *blockSize
	cfg.MemoryBlocks = *memBlocks
	if *rs {
		cfg.Formation = extsort.ReplacementSelection
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *records < 0 {
		fatal(fmt.Errorf("-records = %d (want 0 or more)", *records))
	}
	if *records > maxInputBytes/cfg.RecordSize {
		fatal(fmt.Errorf("-records %d × -record-size %d bytes exceeds the %d TiB input bound: the input is built in memory",
			*records, cfg.RecordSize, maxInputBytes>>40))
	}

	// Synthesize input, one random draw per 8 bytes; a last partial
	// word takes the draw's leading bytes.
	r := rng.New(*seed)
	data := make([]byte, *records**recSize)
	var word [8]byte
	for i := 0; i < len(data); i += 8 {
		binary.BigEndian.PutUint64(word[:], r.Uint64())
		copy(data[i:], word[:])
	}
	in, err := extsort.NewSliceReader(data, cfg.RecordSize)
	if err != nil {
		fatal(err)
	}

	newStore := func() extsort.RunStore { return extsort.NewMemStore() }
	switch *storeKind {
	case "mem":
	case "file":
		if runRoot, err = os.MkdirTemp("", "extsort-runs-"); err != nil {
			fatal(err)
		}
		newStore = func() extsort.RunStore {
			dir, err := os.MkdirTemp(runRoot, "store-")
			if err != nil {
				fatal(err)
			}
			s, err := extsort.NewFileStore(dir)
			if err != nil {
				fatal(err)
			}
			return s
		}
	default:
		fatal(fmt.Errorf("unknown store %q", *storeKind))
	}

	out := extsort.NewCountingWriter(cfg)
	res, err := extsort.Sort(cfg, *fanIn, in, newStore, out)
	if err != nil {
		fatal(err)
	}
	if out.Count() != int64(*records) || !out.Ordered() {
		fatal(fmt.Errorf("output holds %d of %d records, ordered %v — library bug",
			out.Count(), *records, out.Ordered()))
	}

	base := core.Default()
	base.D = *d
	base.N = *n
	if *cacheSize == -1 {
		base.CacheBlocks = cache.Unlimited
	} else {
		base.CacheBlocks = *cacheSize
	}
	if *fanIn > 0 {
		reportPasses(res, *fanIn, base)
	} else {
		reportMerge(res, cfg, base)
	}
	if err := os.RemoveAll(runRoot); err != nil {
		fatal(err)
	}
}

// reportMerge prints a one-pass sort and simulates its merge under each
// strategy.
func reportMerge(res extsort.Result, cfg extsort.Config, base core.Config) {
	fmt.Printf("sorted         %d records (%d-byte records, %d-byte blocks, %s)\n",
		res.Records, cfg.RecordSize, cfg.BlockSize, cfg.Formation)
	fmt.Printf("runs           %d (memory %d blocks)\n", res.Runs, cfg.MemoryBlocks)
	var merge extsort.Group // empty input: no pass
	if len(res.Passes) > 0 {
		merge = res.Passes[0].Groups[0]
	}
	fmt.Printf("merge blocks   %d\n", len(merge.Trace.Runs))

	if res.Runs < 2 {
		fmt.Println("fewer than 2 runs: nothing to simulate")
		return
	}

	// The header names the disks and depth the rows ran at, after the
	// simulator's clamps to the group's run count and longest run.
	ran, err := extsort.MergeConfig(merge, base)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nsimulated merge-phase I/O time (D=%d, N=%d):\n", ran.D, ran.N)
	for _, s := range []struct {
		name  string
		n     int
		inter bool
	}{
		{"no prefetch", 1, false},
		{"intra-run (demand run only)", base.N, false},
		{"inter+intra (all disks one run)", base.N, true},
	} {
		c := base
		c.N = s.n
		c.InterRun = s.inter
		r, err := extsort.SimulateMerge(merge, c)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-33s %8.3f s   (overlap %.2f disks, success %.3f)\n",
			s.name, r.TotalTime.Seconds(), r.MeanConcurrencyWhenBusy, r.SuccessRatio())
	}
}

// reportPasses prints a bounded-fan-in sort and simulates every pass.
func reportPasses(res extsort.Result, fanIn int, base core.Config) {
	fmt.Printf("sorted         %d records in %d merge passes (fan-in %d)\n",
		res.Records, len(res.Passes), fanIn)
	for i, p := range res.Passes {
		fmt.Printf("  pass %d: %d runs -> %d (%d groups)\n",
			i, p.RunsIn, len(p.Groups), len(p.Groups))
	}

	base.InterRun = true
	perPass, total, err := extsort.SimulatePasses(res, base)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nsimulated merge I/O (inter+intra):")
	for i, p := range perPass {
		// Each group runs at the disks and depth the simulator clamps
		// to its own run count and longest run, so a pass's narrow last
		// group can run at a smaller D than the rest.
		var ds, ns []int
		for _, g := range res.Passes[i].Groups {
			ran, err := extsort.MergeConfig(g, base)
			if err != nil {
				fatal(err)
			}
			ds, ns = append(ds, ran.D), append(ns, ran.N)
		}
		fmt.Printf("  pass %d: %8.3f s   (D=%s, N=%s)\n", i, p.Seconds(), valueRange(ds), valueRange(ns))
	}
	fmt.Printf("  total:  %8.3f s\n", total.Seconds())
}

// valueRange prints the range of vs as "lo" or "lo..hi".
func valueRange(vs []int) string {
	lo, hi := slices.Min(vs), slices.Max(vs)
	if lo == hi {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}

// runRoot is the directory holding every file store. Both exits, the
// end of main and fatal, remove it, so no run file outlives the command.
var runRoot string

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "extsort:", err)
	_ = os.RemoveAll(runRoot) // best effort: the command is failing already
	os.Exit(1)
}
