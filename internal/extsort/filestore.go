package extsort

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// FileStore is a RunStore backed by one file per run in a directory,
// for sorts whose runs exceed memory. Each run file is a sequence of
// length-prefixed blocks: a 4-byte big-endian block length followed by
// the block bytes (the final block of a run may be short).
//
// FileStore is not safe for concurrent use, matching the sequential
// structure of the sort.
type FileStore struct {
	dir  string
	runs []fileRunMeta
}

type fileRunMeta struct {
	path    string
	offsets []int64 // byte offset of each block's length prefix
	sizes   []int   // payload length of each block
}

// NewFileStore creates a store rooted at dir, which must exist and be
// writable. Existing run files from a previous store are not reloaded.
func NewFileStore(dir string) (*FileStore, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("extsort: filestore dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("extsort: filestore path %q is not a directory", dir)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *FileStore) Dir() string { return s.dir }

type fileRunWriter struct {
	store  *FileStore
	f      *os.File
	meta   fileRunMeta
	off    int64
	closed bool
}

// CreateRun implements RunStore.
func (s *FileStore) CreateRun() (RunWriter, error) {
	path := filepath.Join(s.dir, fmt.Sprintf("run-%06d.blocks", len(s.runs)))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("extsort: create run: %w", err)
	}
	return &fileRunWriter{store: s, f: f, meta: fileRunMeta{path: path}}, nil
}

// WriteBlock implements RunWriter.
func (w *fileRunWriter) WriteBlock(p []byte) error {
	if w.closed {
		return fmt.Errorf("extsort: write to closed run")
	}
	if len(p) == 0 {
		return fmt.Errorf("extsort: empty block write")
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(p); err != nil {
		return err
	}
	w.meta.offsets = append(w.meta.offsets, w.off)
	w.meta.sizes = append(w.meta.sizes, len(p))
	w.off += int64(4 + len(p))
	return nil
}

// Close implements RunWriter.
func (w *fileRunWriter) Close() error {
	if w.closed {
		return fmt.Errorf("extsort: run closed twice")
	}
	w.closed = true
	if err := w.f.Close(); err != nil {
		return err
	}
	w.store.runs = append(w.store.runs, w.meta)
	return nil
}

type fileRunReader struct {
	f    *os.File
	meta fileRunMeta
}

// OpenRun implements RunStore.
func (s *FileStore) OpenRun(i int) (RunReader, error) {
	if i < 0 || i >= len(s.runs) {
		return nil, fmt.Errorf("extsort: run %d of %d", i, len(s.runs))
	}
	f, err := os.Open(s.runs[i].path)
	if err != nil {
		return nil, err
	}
	return &fileRunReader{f: f, meta: s.runs[i]}, nil
}

// NumRuns implements RunStore.
func (s *FileStore) NumRuns() int { return len(s.runs) }

// ReadBlock implements RunReader.
func (r *fileRunReader) ReadBlock(idx int, p []byte) (int, error) {
	if idx < 0 || idx >= len(r.meta.offsets) {
		return 0, fmt.Errorf("extsort: block %d of %d", idx, len(r.meta.offsets))
	}
	size := r.meta.sizes[idx]
	if len(p) < size {
		return 0, fmt.Errorf("extsort: buffer %d too small for block of %d", len(p), size)
	}
	if _, err := r.f.ReadAt(p[:size], r.meta.offsets[idx]+4); err != nil {
		return 0, err
	}
	return size, nil
}

// Blocks implements RunReader.
func (r *fileRunReader) Blocks() int { return len(r.meta.offsets) }

// Close implements RunReader, releasing the run's file.
func (r *fileRunReader) Close() error { return r.f.Close() }
