package extsort

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func newTestFileStore(t *testing.T) *FileStore {
	t.Helper()
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFileStoreRoundTrip(t *testing.T) {
	s := newTestFileStore(t)
	w, err := s.CreateRun()
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{
		bytes.Repeat([]byte{0xAA}, 32),
		bytes.Repeat([]byte{0xBB}, 32),
		bytes.Repeat([]byte{0xCC}, 16), // short final block
	}
	for _, b := range blocks {
		if err := w.WriteBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s.NumRuns() != 1 {
		t.Fatalf("runs = %d", s.NumRuns())
	}
	r, err := s.OpenRun(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 3 {
		t.Fatalf("blocks = %d", r.Blocks())
	}
	buf := make([]byte, 32)
	for i, want := range blocks {
		n, err := r.ReadBlock(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("block %d mismatch", i)
		}
	}
}

func TestFileStoreFullSort(t *testing.T) {
	cfg := testConfig()
	data := randomData(31, 500)
	in, err := NewSliceReader(data, cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	store := newTestFileStore(t)
	var out SliceWriter
	st, err := Sort(cfg, 0, in, func() RunStore { return store }, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data, sortedCopy(data, 8)) {
		t.Fatal("file-backed sort output wrong")
	}
	if st.Runs != store.NumRuns() {
		t.Fatalf("stats runs %d != store runs %d", st.Runs, store.NumRuns())
	}
	// Run files actually exist on disk.
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != store.NumRuns() {
		t.Fatalf("%d files for %d runs", len(entries), store.NumRuns())
	}
}

func TestFileStoreMatchesMemStore(t *testing.T) {
	cfg := testConfig()
	cfg.Formation = ReplacementSelection
	data := randomData(32, 700)

	runSort := func(store RunStore) ([]byte, []int) {
		in, err := NewSliceReader(data, cfg.RecordSize)
		if err != nil {
			t.Fatal(err)
		}
		var out SliceWriter
		st, err := Sort(cfg, 0, in, func() RunStore { return store }, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.Data, onlyGroup(t, st).RunBlocks
	}

	memOut, memBlocks := runSort(NewMemStore())
	fileOut, fileBlocks := runSort(newTestFileStore(t))
	if !bytes.Equal(memOut, fileOut) {
		t.Fatal("file and memory stores produced different outputs")
	}
	if len(memBlocks) != len(fileBlocks) {
		t.Fatalf("run counts differ: %v vs %v", memBlocks, fileBlocks)
	}
	for i := range memBlocks {
		if memBlocks[i] != fileBlocks[i] {
			t.Fatalf("run %d block counts differ: %v vs %v", i, memBlocks, fileBlocks)
		}
	}
}

func TestFileStoreErrors(t *testing.T) {
	if _, err := NewFileStore(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(f); err == nil {
		t.Fatal("file path accepted as dir")
	}

	s := newTestFileStore(t)
	if _, err := s.OpenRun(0); err == nil {
		t.Fatal("open of missing run accepted")
	}
	w, err := s.CreateRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(nil); err == nil {
		t.Fatal("empty block accepted")
	}
	if err := w.WriteBlock([]byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	if err := w.WriteBlock([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
	r, err := s.OpenRun(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBlock(9, make([]byte, 8)); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := r.ReadBlock(0, make([]byte, 1)); err == nil {
		t.Fatal("short buffer accepted")
	}
}
