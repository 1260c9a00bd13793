package extsort

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
)

func runMultiPass(t *testing.T, cfg Config, fanIn int, data []byte) (Result, []byte) {
	t.Helper()
	in, err := NewSliceReader(data, cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	var out SliceWriter
	res, err := Sort(cfg, fanIn, in, newMemStore, &out)
	if err != nil {
		t.Fatal(err)
	}
	return res, out.Data
}

func TestMultiPassSortsCorrectly(t *testing.T) {
	cfg := testConfig() // 8 records per memory load
	data := randomData(51, 1000)
	res, got := runMultiPass(t, cfg, 4, data)
	if !bytes.Equal(got, sortedCopy(data, 8)) {
		t.Fatal("multi-pass output wrong")
	}
	if res.Records != 1000 {
		t.Fatalf("records = %d", res.Records)
	}
	// 1000 records / 8 per load = 125 runs; fan-in 4: 125 -> 32 -> 8 -> 2 -> 1.
	if len(res.Passes) != 4 {
		t.Fatalf("passes = %d, want 4", len(res.Passes))
	}
	wantRuns := []int{125, 32, 8, 2}
	for i, p := range res.Passes {
		if p.RunsIn != wantRuns[i] {
			t.Fatalf("pass %d runs in = %d, want %d", i, p.RunsIn, wantRuns[i])
		}
		if len(p.Groups) != (p.RunsIn+3)/4 {
			t.Fatalf("pass %d groups = %d", i, len(p.Groups))
		}
	}
	if len(res.Passes[len(res.Passes)-1].Groups) != 1 {
		t.Fatal("last pass did not finish")
	}
}

func TestMultiPassSinglePassWhenFanInCovers(t *testing.T) {
	cfg := testConfig()
	data := randomData(52, 100) // 13 runs
	res, got := runMultiPass(t, cfg, 16, data)
	if !bytes.Equal(got, sortedCopy(data, 8)) {
		t.Fatal("output wrong")
	}
	if len(res.Passes) != 1 {
		t.Fatalf("passes = %d, want 1", len(res.Passes))
	}
}

func TestSortOneRunMergesIntoOutput(t *testing.T) {
	// One formed run still takes one pass of one group, at any fan-in,
	// so every record reaches the output and the trace covers the run.
	cfg := testConfig()
	data := randomData(55, 6) // under one memory load: one run of 2 blocks
	for _, fanIn := range []int{0, 4} {
		res, got := runMultiPass(t, cfg, fanIn, data)
		if !bytes.Equal(got, sortedCopy(data, 8)) {
			t.Fatalf("fan-in %d: output has %d of %d bytes", fanIn, len(got), len(data))
		}
		if res.Runs != 1 {
			t.Fatalf("fan-in %d: %d runs formed, want 1", fanIn, res.Runs)
		}
		g := onlyGroup(t, res)
		if len(g.RunBlocks) != 1 || g.RunBlocks[0] != 2 || len(g.Trace.Runs) != 2 {
			t.Fatalf("fan-in %d: group %+v", fanIn, g)
		}
	}
}

// readerCount counts the run readers a sort opens and closes.
type readerCount struct{ opened, open, peak int }

// countingStore hands out readers that report to a shared readerCount.
type countingStore struct {
	RunStore
	c *readerCount
}

func (s countingStore) OpenRun(i int) (RunReader, error) {
	r, err := s.RunStore.OpenRun(i)
	if err != nil {
		return nil, err
	}
	s.c.opened++
	s.c.open++
	s.c.peak = max(s.c.peak, s.c.open)
	return countingReader{r, s.c}, nil
}

type countingReader struct {
	RunReader
	c *readerCount
}

func (r countingReader) Close() error {
	r.c.open--
	return r.RunReader.Close()
}

func TestSortClosesEveryReader(t *testing.T) {
	// 1000 records / 8 per load = 125 runs; fan-in 4: 125 -> 32 -> 8 -> 2.
	data := randomData(56, 1000)
	for _, tc := range []struct{ fanIn, peak, opened int }{
		{0, 125, 125},
		{4, 4, 125 + 32 + 8 + 2},
	} {
		var c readerCount
		in, err := NewSliceReader(data, 8)
		if err != nil {
			t.Fatal(err)
		}
		newStore := func() RunStore { return countingStore{NewMemStore(), &c} }
		if _, err := Sort(testConfig(), tc.fanIn, in, newStore, &SliceWriter{}); err != nil {
			t.Fatal(err)
		}
		if c.open != 0 || c.peak != tc.peak || c.opened != tc.opened {
			t.Fatalf("fan-in %d: %d readers left open, peak %d (want %d), opened %d (want %d)",
				tc.fanIn, c.open, c.peak, tc.peak, c.opened, tc.opened)
		}
	}
}

// lossyStore keeps only the first block of every run written to it.
type lossyStore struct{ RunStore }

func (s lossyStore) CreateRun() (RunWriter, error) {
	w, err := s.RunStore.CreateRun()
	return &lossyWriter{RunWriter: w}, err
}

type lossyWriter struct {
	RunWriter
	wrote bool
}

func (w *lossyWriter) WriteBlock(p []byte) error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	return w.RunWriter.WriteBlock(p)
}

func TestSortRejectsLostRecords(t *testing.T) {
	// A store that loses blocks makes the next pass write fewer records
	// than were read; the sort must fail rather than return short
	// output. The loss hits the formed runs (fan-in 0) or the runs the
	// first merge pass writes (fan-in 4).
	data := randomData(58, 100)
	for _, tc := range []struct{ fanIn, lossyFrom int }{{0, 1}, {4, 2}} {
		in, err := NewSliceReader(data, 8)
		if err != nil {
			t.Fatal(err)
		}
		stores := 0
		newStore := func() RunStore {
			stores++
			if stores >= tc.lossyFrom {
				return lossyStore{NewMemStore()}
			}
			return NewMemStore()
		}
		if _, err := Sort(testConfig(), tc.fanIn, in, newStore, &SliceWriter{}); err == nil {
			t.Fatalf("fan-in %d: lost records accepted", tc.fanIn)
		}
	}
}

func TestMultiPassTraceConservation(t *testing.T) {
	// Every pass processes every block exactly once: its group traces
	// must sum to the pass's total input blocks, and group run counts
	// must match trace lengths.
	cfg := testConfig()
	data := randomData(53, 600)
	res, _ := runMultiPass(t, cfg, 3, data)
	for i, p := range res.Passes {
		traced := 0
		for g, group := range p.Groups {
			want := 0
			for _, b := range group.RunBlocks {
				want += b
			}
			if len(group.Trace.Runs) != want {
				t.Fatalf("pass %d group %d: trace %d entries for %d blocks",
					i, g, len(group.Trace.Runs), want)
			}
			traced += len(group.Trace.Runs)
		}
		// The pass reads all data blocks (ragged tails may change the
		// block count between passes, but only by packing).
		if traced == 0 {
			t.Fatalf("pass %d traced nothing", i)
		}
	}
}

func TestMultiPassEmptyAndValidation(t *testing.T) {
	cfg := testConfig()
	res, got := runMultiPass(t, cfg, 4, nil)
	if len(got) != 0 || len(res.Passes) != 0 {
		t.Fatal("empty input mishandled")
	}
	in, _ := NewSliceReader(nil, cfg.RecordSize)
	for _, fanIn := range []int{1, -1} {
		if _, err := Sort(cfg, fanIn, in, newMemStore, &SliceWriter{}); err == nil {
			t.Fatalf("fan-in %d accepted", fanIn)
		}
	}
	bad := cfg
	bad.RecordSize = 0
	if _, err := Sort(bad, 4, in, newMemStore, &SliceWriter{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestSimulatePasses(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryBlocks = 8 // 32-record runs -> 8 blocks per run
	data := randomData(54, 2000)
	res, got := runMultiPass(t, cfg, 4, data)
	if !bytes.Equal(got, sortedCopy(data, 8)) {
		t.Fatal("output wrong")
	}

	base := core.Default()
	base.D = 2
	base.N = 2
	base.InterRun = true
	base.CacheBlocks = cache.Unlimited
	base.Disk.Rotational = disk.RotConstant

	perPass, total, err := SimulatePasses(res, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(perPass) != len(res.Passes) {
		t.Fatalf("per-pass count %d != passes %d", len(perPass), len(res.Passes))
	}
	var sum float64
	for i, p := range perPass {
		if p <= 0 {
			t.Fatalf("pass %d time = %v", i, p)
		}
		sum += float64(p)
	}
	if float64(total) != sum {
		t.Fatalf("total %v != sum %v", total, sum)
	}

	// Prefetching must help multi-pass sorts too.
	slow := base
	slow.N = 1
	slow.InterRun = false
	_, slowTotal, err := SimulatePasses(res, slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowTotal <= total {
		t.Fatalf("no-prefetch (%v) not slower than inter+intra (%v)", slowTotal, total)
	}
}

func TestBlockSinkRaggedTail(t *testing.T) {
	cfg := testConfig() // 4 records per block
	store := NewMemStore()
	sink, err := newRunSink(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 8)
	for i := 0; i < 6; i++ { // 1.5 blocks
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenRun(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 2 {
		t.Fatalf("blocks = %d, want 2", r.Blocks())
	}
	buf := make([]byte, 64)
	n, err := r.ReadBlock(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 { // 2 ragged records
		t.Fatalf("tail block = %d bytes", n)
	}
}
