package extsort_test

import (
	"encoding/binary"
	"fmt"

	"repro/internal/extsort"
	"repro/internal/rng"
)

// ExampleSort sorts ten thousand 8-byte records externally and checks
// the result.
func ExampleSort() {
	cfg := extsort.Config{
		RecordSize:   8,
		BlockSize:    512, // 64 records per block
		MemoryBlocks: 4,   // 256 records per memory load
		Formation:    extsort.LoadSort,
	}

	r := rng.New(7)
	data := make([]byte, 10_000*8)
	for i := 0; i < len(data); i += 8 {
		binary.BigEndian.PutUint64(data[i:], r.Uint64())
	}
	in, err := extsort.NewSliceReader(data, cfg.RecordSize)
	if err != nil {
		panic(err)
	}

	newStore := func() extsort.RunStore { return extsort.NewMemStore() }
	out := extsort.NewCountingWriter(cfg)
	res, err := extsort.Sort(cfg, 0, in, newStore, out) // fan-in 0: one merge pass
	if err != nil {
		panic(err)
	}
	fmt.Printf("records: %d, runs: %d, ordered: %v\n",
		res.Records, res.Runs, out.Ordered())
	fmt.Printf("depletion trace covers %d blocks\n", len(res.Passes[0].Groups[0].Trace.Runs))
	// Output:
	// records: 10000, runs: 40, ordered: true
	// depletion trace covers 157 blocks
}

// ExampleSort_replacementSelection demonstrates replacement selection
// producing fewer, longer runs than load-sort on the same input.
func ExampleSort_replacementSelection() {
	mk := func(f extsort.RunFormation) int {
		cfg := extsort.Config{RecordSize: 8, BlockSize: 512, MemoryBlocks: 4, Formation: f}
		r := rng.New(7)
		data := make([]byte, 10_000*8)
		for i := 0; i < len(data); i += 8 {
			binary.BigEndian.PutUint64(data[i:], r.Uint64())
		}
		in, err := extsort.NewSliceReader(data, cfg.RecordSize)
		if err != nil {
			panic(err)
		}
		newStore := func() extsort.RunStore { return extsort.NewMemStore() }
		res, err := extsort.Sort(cfg, 0, in, newStore, &extsort.SliceWriter{})
		if err != nil {
			panic(err)
		}
		return res.Runs
	}
	ls := mk(extsort.LoadSort)
	rs := mk(extsort.ReplacementSelection)
	fmt.Printf("load-sort: %d runs; replacement selection: %d runs (about half)\n", ls, rs)
	// Output:
	// load-sort: 40 runs; replacement selection: 21 runs (about half)
}
