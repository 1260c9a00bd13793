package extsort

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// FormRuns consumes input and writes sorted runs into store using the
// configured formation algorithm. It returns the number of records
// processed.
func FormRuns(cfg Config, input RecordReader, store RunStore) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	switch cfg.Formation {
	case LoadSort:
		return formLoadSort(cfg, input, store)
	case ReplacementSelection:
		return formReplacementSelection(cfg, input, store)
	default:
		return 0, fmt.Errorf("extsort: unknown formation %v", cfg.Formation)
	}
}

// writeRun writes records (already sorted) as blocks of a new run.
func writeRun(cfg Config, store RunStore, records [][]byte) error {
	sink, err := newRunSink(cfg, store)
	if err != nil {
		return err
	}
	for _, rec := range records {
		if err := sink.Write(rec); err != nil {
			return err
		}
	}
	return sink.Close()
}

// formLoadSort sorts one memory load at a time: the scheme the paper's
// merge phase assumes ("sorting one memory-load of data at a time, and
// writing each run out to external disk storage").
func formLoadSort(cfg Config, input RecordReader, store RunStore) (int64, error) {
	capacity := cfg.MemoryBlocks * cfg.RecordsPerBlock()
	buf := make([][]byte, 0, capacity)
	arena := make([]byte, 0, capacity*cfg.RecordSize)
	var total int64

	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		// Stable + a deterministic comparator means the sorted order is
		// unique, so the non-reflective sort is byte-equivalent to
		// sort.SliceStable and roughly twice as fast on the hot path.
		slices.SortStableFunc(buf, func(a, b []byte) int {
			if cfg.less(a, b) {
				return -1
			}
			if cfg.less(b, a) {
				return 1
			}
			return 0
		})
		if err := writeRun(cfg, store, buf); err != nil {
			return err
		}
		buf = buf[:0]
		arena = arena[:0]
		return nil
	}

	for {
		rec, err := input.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return total, err
		}
		if len(rec) != cfg.RecordSize {
			return total, ErrShortRecord
		}
		start := len(arena)
		arena = append(arena, rec...)
		buf = append(buf, arena[start:len(arena):len(arena)])
		total++
		if len(buf) == capacity {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	return total, flush()
}

// rsItem is a replacement-selection heap entry: records tagged with the
// run epoch they belong to. Ordering is (epoch, key).
type rsItem struct {
	epoch int
	rec   []byte
}

// rsHeap is a binary min-heap of rsItems.
type rsHeap struct {
	cfg   Config
	items []rsItem
}

func (h *rsHeap) less(a, b rsItem) bool {
	if a.epoch != b.epoch {
		return a.epoch < b.epoch
	}
	return h.cfg.less(a.rec, b.rec)
}

func (h *rsHeap) push(it rsItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *rsHeap) pop() rsItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < len(h.items) && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// formReplacementSelection streams records through a selection heap
// (Knuth 5.4.1R): records smaller than the last output are fenced into
// the next run's epoch. Expected run length is twice the memory size
// for random input. Each output record goes straight to its run's
// sink, so memory holds the heap and one block, however long the run.
func formReplacementSelection(cfg Config, input RecordReader, store RunStore) (int64, error) {
	capacity := cfg.MemoryBlocks * cfg.RecordsPerBlock()
	h := &rsHeap{cfg: cfg}
	var total int64

	// readOne returns the next input record, valid until the next call.
	readOne := func() ([]byte, bool, error) {
		rec, err := input.Next()
		if errors.Is(err, io.EOF) {
			return nil, false, nil
		}
		if err != nil {
			return nil, false, err
		}
		if len(rec) != cfg.RecordSize {
			return nil, false, ErrShortRecord
		}
		total++
		return rec, true, nil
	}

	// Prime the heap. Each heap record owns one slot of the arena,
	// which is never regrown; a record leaving the heap hands its slot
	// to the record that replaces it.
	arena := make([]byte, 0, capacity*cfg.RecordSize)
	for len(h.items) < capacity {
		rec, ok, err := readOne()
		if err != nil {
			return total, err
		}
		if !ok {
			break
		}
		start := len(arena)
		arena = append(arena, rec...)
		h.push(rsItem{rec: arena[start:len(arena):len(arena)]})
	}
	if len(h.items) == 0 {
		return 0, nil
	}

	epoch := 0
	sink, err := newRunSink(cfg, store)
	if err != nil {
		return total, err
	}
	for len(h.items) > 0 {
		it := h.pop()
		if it.epoch > epoch {
			// Every remaining item belongs to a later run: close this one.
			if err := sink.Close(); err != nil {
				return total, err
			}
			if sink, err = newRunSink(cfg, store); err != nil {
				return total, err
			}
			epoch = it.epoch
		}
		if err := sink.Write(it.rec); err != nil {
			return total, err
		}

		rec, ok, err := readOne()
		if err != nil {
			return total, err
		}
		if ok {
			next := rsItem{epoch: epoch, rec: it.rec}
			// A record smaller than the one just emitted cannot join the
			// current run; fence it into the next epoch. Only then may
			// it take over the emitted record's slot: the sink already
			// holds its own copy.
			if cfg.less(rec, it.rec) {
				next.epoch = epoch + 1
			}
			copy(next.rec, rec)
			h.push(next)
		}
	}
	return total, sink.Close()
}
