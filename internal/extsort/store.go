package extsort

import "fmt"

// RunStore holds sorted runs as sequences of fixed-size blocks. The
// in-memory implementation below is the library's default; callers can
// provide their own (e.g. file-backed) store.
type RunStore interface {
	// CreateRun opens a new run for writing; runs are numbered in
	// creation order starting at 0.
	CreateRun() (RunWriter, error)
	// OpenRun returns a reader for run i.
	OpenRun(i int) (RunReader, error)
	// NumRuns returns the number of completed runs.
	NumRuns() int
}

// RunWriter receives a run's blocks in order.
type RunWriter interface {
	// WriteBlock appends one block (its length may be short for the
	// final block of a run).
	WriteBlock(p []byte) error
	// Close finishes the run; the run becomes visible to OpenRun.
	Close() error
}

// RunReader reads a run's blocks by index.
type RunReader interface {
	// ReadBlock copies block idx into p and returns its length.
	ReadBlock(idx int, p []byte) (int, error)
	// Blocks returns the number of blocks in the run.
	Blocks() int
	// Close releases the reader; it must not be used afterwards.
	Close() error
}

// MemStore is an in-memory RunStore.
type MemStore struct {
	runs [][][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

type memRunWriter struct {
	store  *MemStore
	blocks [][]byte
	closed bool
}

// CreateRun implements RunStore.
func (s *MemStore) CreateRun() (RunWriter, error) {
	return &memRunWriter{store: s}, nil
}

// WriteBlock implements RunWriter.
func (w *memRunWriter) WriteBlock(p []byte) error {
	if w.closed {
		return fmt.Errorf("extsort: write to closed run")
	}
	if len(p) == 0 {
		return fmt.Errorf("extsort: empty block write")
	}
	block := make([]byte, len(p))
	copy(block, p)
	w.blocks = append(w.blocks, block)
	return nil
}

// Close implements RunWriter.
func (w *memRunWriter) Close() error {
	if w.closed {
		return fmt.Errorf("extsort: run closed twice")
	}
	w.closed = true
	w.store.runs = append(w.store.runs, w.blocks)
	return nil
}

type memRunReader struct {
	blocks [][]byte
}

// OpenRun implements RunStore.
func (s *MemStore) OpenRun(i int) (RunReader, error) {
	if i < 0 || i >= len(s.runs) {
		return nil, fmt.Errorf("extsort: run %d of %d", i, len(s.runs))
	}
	return &memRunReader{blocks: s.runs[i]}, nil
}

// NumRuns implements RunStore.
func (s *MemStore) NumRuns() int { return len(s.runs) }

// ReadBlock implements RunReader.
func (r *memRunReader) ReadBlock(idx int, p []byte) (int, error) {
	if idx < 0 || idx >= len(r.blocks) {
		return 0, fmt.Errorf("extsort: block %d of %d", idx, len(r.blocks))
	}
	n := copy(p, r.blocks[idx])
	if n < len(r.blocks[idx]) {
		return n, fmt.Errorf("extsort: buffer %d too small for block of %d", len(p), len(r.blocks[idx]))
	}
	return n, nil
}

// Blocks implements RunReader.
func (r *memRunReader) Blocks() int { return len(r.blocks) }

// Close implements RunReader; a memory run holds nothing to release.
func (r *memRunReader) Close() error { return nil }

// blockSink packs a record stream into the blocks of one new run. It is
// the only writer of runs: run formation and every intermediate merge
// pass stream through it, one block at a time.
type blockSink struct {
	w     RunWriter
	block []byte
}

// newRunSink creates a run in store and returns a sink writing it. The
// sink's buffer holds exactly one block of whole records, so it flushes
// when full.
func newRunSink(cfg Config, store RunStore) (*blockSink, error) {
	w, err := store.CreateRun()
	if err != nil {
		return nil, err
	}
	return &blockSink{w: w, block: make([]byte, 0, cfg.RecordsPerBlock()*cfg.RecordSize)}, nil
}

// Write implements RecordWriter.
func (b *blockSink) Write(rec []byte) error {
	b.block = append(b.block, rec...)
	if len(b.block) == cap(b.block) {
		return b.flush()
	}
	return nil
}

func (b *blockSink) flush() error {
	if len(b.block) == 0 {
		return nil
	}
	if err := b.w.WriteBlock(b.block); err != nil {
		return err
	}
	b.block = b.block[:0]
	return nil
}

// Close flushes the ragged tail and closes the run.
func (b *blockSink) Close() error {
	if err := b.flush(); err != nil {
		return err
	}
	return b.w.Close()
}
