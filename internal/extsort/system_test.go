package extsort

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rng"
)

// TestSystemEndToEnd is the whole-library integration test: a
// file-backed, memory-bounded, multi-pass external sort of one million
// records, verified record by record, with every pass's real depletion
// trace replayed through the paper's I/O model. It exercises run
// formation, the loser tree, block re-packing between passes, the file
// store, trace capture and the simulator in one flow.
func TestSystemEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("system test skipped in -short mode")
	}
	cfg := Config{
		RecordSize:   16,
		BlockSize:    4096, // 256 records per block
		MemoryBlocks: 32,   // 8192 records per memory load
		Formation:    ReplacementSelection,
	}
	const records = 1_000_000

	r := rng.New(2026)
	data := make([]byte, records*cfg.RecordSize)
	for i := 0; i < len(data); i += 8 {
		binary.BigEndian.PutUint64(data[i:], r.Uint64())
	}

	in, err := NewStreamReader(bytes.NewReader(data), cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	out := NewCountingWriter(cfg)
	res, err := Sort(cfg, 8, in, func() RunStore {
		s, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, out)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != records || !out.Ordered() {
		t.Fatalf("verification failed: count=%d ordered=%v", out.Count(), out.Ordered())
	}
	if len(res.Passes) < 2 {
		t.Fatalf("expected a genuinely multi-pass sort, got %d passes", len(res.Passes))
	}

	base := core.Default()
	base.D = 5
	base.N = 8
	base.InterRun = true
	base.CacheBlocks = cache.Unlimited
	perPass, total, err := SimulatePasses(res, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(perPass) != len(res.Passes) || total <= 0 {
		t.Fatalf("simulation incoherent: %v passes, total %v", len(perPass), total)
	}

	// The simulated inter-run merge must beat no-prefetch on the same
	// real traces, pass for pass.
	slow := base
	slow.N = 1
	slow.InterRun = false
	slowPer, slowTotal, err := SimulatePasses(res, slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowTotal <= total {
		t.Fatalf("no-prefetch (%v) not slower than inter+intra (%v)", slowTotal, total)
	}
	for i := range perPass {
		if slowPer[i] <= perPass[i] {
			t.Fatalf("pass %d: no-prefetch (%v) not slower (%v)", i, slowPer[i], perPass[i])
		}
	}
}
