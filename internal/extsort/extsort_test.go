package extsort

import (
	"bytes"
	"encoding/binary"
	"io"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// testConfig returns a small geometry: 8-byte records, 32-byte blocks
// (4 records/block), 2 blocks of memory (8 records per load).
func testConfig() Config {
	return Config{RecordSize: 8, BlockSize: 32, MemoryBlocks: 2, Formation: LoadSort}
}

// randomData returns n 8-byte records with uniform random content.
func randomData(seed uint64, n int) []byte {
	r := rng.New(seed)
	data := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(data[i*8:], r.Uint64())
	}
	return data
}

// sortedCopy returns the records of data sorted with the stdlib, for
// comparison against the external sort.
func sortedCopy(data []byte, recSize int) []byte {
	n := len(data) / recSize
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = data[i*recSize : (i+1)*recSize]
	}
	sort.SliceStable(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
	out := make([]byte, 0, len(data))
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

func newMemStore() RunStore { return NewMemStore() }

// sortAll sorts data in one merge pass and returns the output, the
// result and the store of the formed runs.
func sortAll(t *testing.T, cfg Config, data []byte) ([]byte, Result, *MemStore) {
	t.Helper()
	in, err := NewSliceReader(data, cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	var out SliceWriter
	st, err := Sort(cfg, 0, in, func() RunStore { return store }, &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.Data, st, store
}

// onlyGroup returns the one group of a one-pass sort.
func onlyGroup(t *testing.T, res Result) Group {
	t.Helper()
	if len(res.Passes) != 1 || len(res.Passes[0].Groups) != 1 {
		t.Fatalf("want one pass of one group, got %+v", res.Passes)
	}
	return res.Passes[0].Groups[0]
}

// openRuns opens every run of store; the test closes them at its end.
func openRuns(t *testing.T, store RunStore) []RunReader {
	t.Helper()
	runs := make([]RunReader, store.NumRuns())
	for i := range runs {
		r, err := store.OpenRun(i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		runs[i] = r
	}
	return runs
}

func TestSortMatchesStdlib(t *testing.T) {
	cfg := testConfig()
	data := randomData(1, 100)
	got, st, _ := sortAll(t, cfg, data)
	want := sortedCopy(data, 8)
	if !bytes.Equal(got, want) {
		t.Fatal("external sort output differs from stdlib sort")
	}
	if st.Records != 100 {
		t.Fatalf("records = %d", st.Records)
	}
	// 100 records / 8 per load = 13 runs under load-sort.
	if st.Runs != 13 {
		t.Fatalf("runs = %d, want 13", st.Runs)
	}
}

func TestSortEmptyInput(t *testing.T) {
	cfg := testConfig()
	got, st, _ := sortAll(t, cfg, nil)
	if len(got) != 0 || st.Records != 0 || st.Runs != 0 {
		t.Fatalf("empty input: %d bytes, %+v", len(got), st)
	}
}

func TestSortSingleRecord(t *testing.T) {
	cfg := testConfig()
	data := randomData(2, 1)
	got, st, _ := sortAll(t, cfg, data)
	if !bytes.Equal(got, data) || st.Runs != 1 {
		t.Fatalf("single record mishandled: runs=%d", st.Runs)
	}
}

func TestSortWithDuplicates(t *testing.T) {
	cfg := testConfig()
	var data []byte
	for i := 0; i < 60; i++ {
		rec := make([]byte, 8)
		binary.BigEndian.PutUint64(rec, uint64(i%5))
		data = append(data, rec...)
	}
	got, _, _ := sortAll(t, cfg, data)
	if !bytes.Equal(got, sortedCopy(data, 8)) {
		t.Fatal("duplicate-heavy input sorted wrong")
	}
}

func TestSortAlreadySorted(t *testing.T) {
	cfg := testConfig()
	data := sortedCopy(randomData(3, 64), 8)
	got, _, _ := sortAll(t, cfg, data)
	if !bytes.Equal(got, data) {
		t.Fatal("sorted input not preserved")
	}
}

func TestSortReverseSorted(t *testing.T) {
	cfg := testConfig()
	sorted := sortedCopy(randomData(4, 64), 8)
	var rev []byte
	for i := 63; i >= 0; i-- {
		rev = append(rev, sorted[i*8:(i+1)*8]...)
	}
	got, _, _ := sortAll(t, cfg, rev)
	if !bytes.Equal(got, sorted) {
		t.Fatal("reverse input sorted wrong")
	}
}

func TestSortPropertyQuick(t *testing.T) {
	cfg := testConfig()
	seedCounter := uint64(100)
	err := quick.Check(func(sz uint16) bool {
		n := int(sz % 300)
		seedCounter++
		data := randomData(seedCounter, n)
		in, err := NewSliceReader(data, cfg.RecordSize)
		if err != nil {
			return false
		}
		var out SliceWriter
		if _, err := Sort(cfg, 0, in, newMemStore, &out); err != nil {
			return false
		}
		return bytes.Equal(out.Data, sortedCopy(data, 8))
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplacementSelectionSortsCorrectly(t *testing.T) {
	cfg := testConfig()
	cfg.Formation = ReplacementSelection
	data := randomData(5, 200)
	got, _, _ := sortAll(t, cfg, data)
	if !bytes.Equal(got, sortedCopy(data, 8)) {
		t.Fatal("replacement-selection sort output wrong")
	}
}

func TestReplacementSelectionLongerRuns(t *testing.T) {
	// Knuth: replacement selection produces runs averaging 2x memory on
	// random input, so it should need materially fewer runs.
	lsCfg := testConfig()
	rsCfg := lsCfg
	rsCfg.Formation = ReplacementSelection
	data := randomData(6, 400)
	_, lsStats, _ := sortAll(t, lsCfg, data)
	_, rsStats, _ := sortAll(t, rsCfg, data)
	if rsStats.Runs >= lsStats.Runs {
		t.Fatalf("replacement selection runs %d >= load-sort runs %d", rsStats.Runs, lsStats.Runs)
	}
	// Should approach half as many (2x run length).
	if float64(rsStats.Runs) > 0.75*float64(lsStats.Runs) {
		t.Fatalf("replacement selection not ~2x: %d vs %d", rsStats.Runs, lsStats.Runs)
	}
}

func TestReplacementSelectionSortedInputOneRun(t *testing.T) {
	cfg := testConfig()
	cfg.Formation = ReplacementSelection
	data := sortedCopy(randomData(7, 100), 8)
	_, st, _ := sortAll(t, cfg, data)
	if st.Runs != 1 {
		t.Fatalf("sorted input produced %d runs, want 1", st.Runs)
	}
}

// recordCounter counts the records read through it.
type recordCounter struct {
	RecordReader
	n int
}

func (r *recordCounter) Next() ([]byte, error) {
	rec, err := r.RecordReader.Next()
	if err == nil {
		r.n++
	}
	return rec, err
}

// writeWatchStore calls onWrite before each block it stores.
type writeWatchStore struct {
	RunStore
	onWrite func()
}

func (s writeWatchStore) CreateRun() (RunWriter, error) {
	w, err := s.RunStore.CreateRun()
	return writeWatcher{w, s.onWrite}, err
}

type writeWatcher struct {
	RunWriter
	onWrite func()
}

func (w writeWatcher) WriteBlock(p []byte) error {
	w.onWrite()
	return w.RunWriter.WriteBlock(p)
}

func TestReplacementSelectionStreamsRun(t *testing.T) {
	// Sorted input forms one run as long as the input; its first block
	// must reach the store once one memory load plus one block of
	// records has been read, not after the whole run.
	cfg := testConfig()
	cfg.Formation = ReplacementSelection
	sr, err := NewSliceReader(sortedCopy(randomData(10, 400), 8), cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	in := &recordCounter{RecordReader: sr}
	readAtFirstWrite := -1
	store := writeWatchStore{NewMemStore(), func() {
		if readAtFirstWrite < 0 {
			readAtFirstWrite = in.n
		}
	}}
	if _, err := FormRuns(cfg, in, store); err != nil {
		t.Fatal(err)
	}
	limit := (cfg.MemoryBlocks + 1) * cfg.RecordsPerBlock()
	if store.NumRuns() != 1 || readAtFirstWrite < 0 || readAtFirstWrite > limit {
		t.Fatalf("%d runs; first block written after %d records read, want at most %d",
			store.NumRuns(), readAtFirstWrite, limit)
	}
}

func TestKeyPrefixComparison(t *testing.T) {
	cfg := testConfig()
	cfg.KeySize = 2
	// Records with equal 2-byte keys must keep stable payload handling;
	// ordering is checked on keys only.
	data := randomData(8, 80)
	got, _, _ := sortAll(t, cfg, data)
	for i := 8; i < len(got); i += 8 {
		if bytes.Compare(got[i:i+2], got[i-8:i-6]) < 0 {
			t.Fatal("key-prefix ordering violated")
		}
	}
}

func TestTraceCountsEveryBlock(t *testing.T) {
	cfg := testConfig()
	data := randomData(9, 120)
	_, st, _ := sortAll(t, cfg, data)
	g := onlyGroup(t, st)
	total := 0
	counts := map[int]int{}
	for _, r := range g.Trace.Runs {
		counts[r]++
		total++
	}
	for r, blocks := range g.RunBlocks {
		if counts[r] != blocks {
			t.Fatalf("run %d depleted %d times, has %d blocks", r, counts[r], blocks)
		}
	}
	if total != len(g.Trace.Runs) {
		t.Fatal("trace accounting inconsistent")
	}
}

func TestMergeOfManualRuns(t *testing.T) {
	cfg := testConfig()
	store := NewMemStore()
	// Two interleaved runs: evens and odds.
	for _, start := range []int{0, 1} {
		var recs [][]byte
		for v := start; v < 40; v += 2 {
			rec := make([]byte, 8)
			binary.BigEndian.PutUint64(rec, uint64(v))
			recs = append(recs, rec)
		}
		if err := writeRun(cfg, store, recs); err != nil {
			t.Fatal(err)
		}
	}
	w := NewCountingWriter(cfg)
	n, err := Merge(cfg, openRuns(t, store), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 || w.Count() != 40 || !w.Ordered() {
		t.Fatalf("merge: n=%d count=%d ordered=%v", n, w.Count(), w.Ordered())
	}
}

func TestMergeManyRunsLoserTree(t *testing.T) {
	// Exercise non-power-of-two fan-in (loser tree edge cases).
	for _, k := range []int{1, 2, 3, 5, 7, 13} {
		cfg := testConfig()
		store := NewMemStore()
		r := rng.New(uint64(k))
		var all []byte
		for run := 0; run < k; run++ {
			n := 3 + r.Intn(9)
			data := randomData(uint64(1000+run*31+k), n)
			sorted := sortedCopy(data, 8)
			all = append(all, sorted...)
			var recs [][]byte
			for i := 0; i < n; i++ {
				recs = append(recs, sorted[i*8:(i+1)*8])
			}
			if err := writeRun(cfg, store, recs); err != nil {
				t.Fatal(err)
			}
		}
		var out SliceWriter
		if _, err := Merge(cfg, openRuns(t, store), &out, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Data, sortedCopy(all, 8)) {
			t.Fatalf("k=%d merge wrong", k)
		}
	}
}

func TestShortRecordRejected(t *testing.T) {
	cfg := testConfig()
	in := &oddReader{}
	if _, err := FormRuns(cfg, in, NewMemStore()); err != ErrShortRecord {
		t.Fatalf("err = %v, want ErrShortRecord", err)
	}
	cfg.Formation = ReplacementSelection
	if _, err := FormRuns(cfg, &oddReader{}, NewMemStore()); err != ErrShortRecord {
		t.Fatalf("rs err = %v, want ErrShortRecord", err)
	}
}

type oddReader struct{ done bool }

func (o *oddReader) Next() ([]byte, error) {
	if o.done {
		return nil, io.EOF
	}
	o.done = true
	return []byte{1, 2, 3}, nil
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{RecordSize: 0, BlockSize: 32, MemoryBlocks: 1},
		{RecordSize: 64, BlockSize: 32, MemoryBlocks: 1},
		{RecordSize: 8, BlockSize: 32, MemoryBlocks: 0},
		{RecordSize: 8, BlockSize: 32, MemoryBlocks: 1, KeySize: 9},
		{RecordSize: 8, BlockSize: 32, MemoryBlocks: 1, Formation: RunFormation(9)},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultConfig().RecordsPerBlock() != 51 {
		t.Fatalf("paper geometry: %d records/block, want 51", DefaultConfig().RecordsPerBlock())
	}
}

func TestSliceReaderValidation(t *testing.T) {
	if _, err := NewSliceReader(make([]byte, 10), 8); err == nil {
		t.Fatal("misaligned data accepted")
	}
	r, err := NewSliceReader(make([]byte, 16), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestMemStoreErrors(t *testing.T) {
	s := NewMemStore()
	if _, err := s.OpenRun(0); err == nil {
		t.Fatal("open of missing run accepted")
	}
	w, _ := s.CreateRun()
	if err := w.WriteBlock(nil); err == nil {
		t.Fatal("empty block accepted")
	}
	if err := w.WriteBlock([]byte{1}); err != nil {
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
	if _, err := r.ReadBlock(5, make([]byte, 4)); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if _, err := r.ReadBlock(0, make([]byte, 0)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestCountingWriterDetectsDisorder(t *testing.T) {
	cfg := testConfig()
	w := NewCountingWriter(cfg)
	a := make([]byte, 8)
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(a, 5)
	binary.BigEndian.PutUint64(b, 3)
	_ = w.Write(a)
	_ = w.Write(b)
	if w.Ordered() {
		t.Fatal("disorder not detected")
	}
	if w.Count() != 2 {
		t.Fatalf("count = %d", w.Count())
	}
}

func TestFormationString(t *testing.T) {
	if LoadSort.String() != "load-sort" || ReplacementSelection.String() != "replacement-selection" {
		t.Fatal("formation strings wrong")
	}
}

func TestStreamReaderRoundTrip(t *testing.T) {
	data := randomData(61, 20)
	sr, err := NewStreamReader(bytes.NewReader(data), 8)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stream reader mangled data")
	}
}

func TestStreamReaderTrailingBytes(t *testing.T) {
	sr, err := NewStreamReader(bytes.NewReader(make([]byte, 11)), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err == nil {
		t.Fatal("trailing partial record accepted")
	}
}

func TestStreamReaderValidation(t *testing.T) {
	if _, err := NewStreamReader(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("record size 0 accepted")
	}
}

func TestSortFromStream(t *testing.T) {
	cfg := testConfig()
	data := randomData(62, 150)
	sr, err := NewStreamReader(bytes.NewReader(data), cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	var out SliceWriter
	if _, err := Sort(cfg, 0, sr, newMemStore, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data, sortedCopy(data, 8)) {
		t.Fatal("stream-fed sort wrong")
	}
}

// TestRunFormationAllocations bounds run formation at O(blocks)
// allocations: records are copied into memory slots and output blocks,
// never allocated one by one. 200,000 8-byte records make 391 blocks of
// 512 records.
func TestRunFormationAllocations(t *testing.T) {
	data := randomData(5, 200_000)
	for _, f := range []RunFormation{LoadSort, ReplacementSelection} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RecordSize = 8
			cfg.Formation = f
			blocks := (200_000 + cfg.RecordsPerBlock() - 1) / cfg.RecordsPerBlock()
			allocs := testing.AllocsPerRun(1, func() {
				in, err := NewSliceReader(data, cfg.RecordSize)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := FormRuns(cfg, in, NewMemStore()); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v: %.0f allocations for %d blocks", f, allocs, blocks)
			if limit := float64(2 * blocks); allocs > limit {
				t.Fatalf("%v made %.0f allocations for %d blocks, want at most %.0f", f, allocs, blocks, limit)
			}
		})
	}
}
