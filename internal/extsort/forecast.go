package extsort

import (
	"fmt"
	"sort"
)

// ForecastTrace computes the exact block-depletion order of the k-way
// merge of store's runs without performing the merge, using the
// forecasting principle (Knuth 5.4.6): a block is exhausted when its
// last record is output, records are output in global sorted order
// (ties resolved by run index, matching the merge's stable loser
// tree), and within a run blocks exhaust in position order. Sorting
// every block's last record therefore yields the depletion sequence.
//
// This is what lets a real merge drive oracle prefetching (the
// simulator's OracleRun policy) before a single record is merged: the
// forecast reads only the final record of each block.
func ForecastTrace(cfg Config, store RunStore) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type blockKey struct {
		run, idx int
		last     []byte
	}
	var keys []blockKey
	buf := make([]byte, cfg.BlockSize)
	readLasts := func(r int) error {
		reader, err := store.OpenRun(r)
		if err != nil {
			return err
		}
		defer reader.Close() // read-only: a failed close loses nothing
		for b := 0; b < reader.Blocks(); b++ {
			n, err := reader.ReadBlock(b, buf)
			if err != nil {
				return err
			}
			if n == 0 || n%cfg.RecordSize != 0 {
				return fmt.Errorf("extsort: forecast: run %d block %d has %d bytes", r, b, n)
			}
			last := make([]byte, cfg.RecordSize)
			copy(last, buf[n-cfg.RecordSize:n])
			keys = append(keys, blockKey{run: r, idx: b, last: last})
		}
		return nil
	}
	for r := 0; r < store.NumRuns(); r++ {
		if err := readLasts(r); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if cfg.less(a.last, b.last) {
			return true
		}
		if cfg.less(b.last, a.last) {
			return false
		}
		// Equal last records: the stable merge drains the lower run
		// index first; within a run, earlier blocks first.
		if a.run != b.run {
			return a.run < b.run
		}
		return a.idx < b.idx
	})
	t := &Trace{Runs: make([]int, len(keys))}
	for i, k := range keys {
		t.Runs[i] = k.run
	}
	return t, nil
}
