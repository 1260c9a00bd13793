package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// writeBase returns the headline configuration with output modelling on.
func writeBase(shared bool, writeDisks int) Config {
	cfg := Default()
	cfg.N = 10
	cfg.InterRun = true
	cfg.CacheBlocks = cache.Unlimited
	cfg.Write = WriteConfig{Enabled: true, Shared: shared, Disks: writeDisks}
	return cfg
}

func TestWriteEveryBlockWritten(t *testing.T) {
	res := mustRun(t, writeBase(false, 2))
	if res.WrittenBlocks != res.MergedBlocks {
		t.Fatalf("wrote %d of %d merged blocks", res.WrittenBlocks, res.MergedBlocks)
	}
	var onWriteDisks int64
	for _, d := range res.PerWriteDisk {
		onWriteDisks += d.Blocks
	}
	if onWriteDisks != res.MergedBlocks {
		t.Fatalf("write disks carried %d blocks, want %d", onWriteDisks, res.MergedBlocks)
	}
	// Input disks carry exactly the reads.
	var onInput int64
	for _, d := range res.PerDisk {
		onInput += d.Blocks
	}
	if onInput != res.MergedBlocks {
		t.Fatalf("input disks carried %d blocks (writes leaked in?)", onInput)
	}
}

func TestSeparateWriteDisksBarelyCost(t *testing.T) {
	// The paper's justification for ignoring writes: with an output
	// array matching the input array (D disks), writes are sequential
	// and overlap reads, so the merge time barely moves. Allow a
	// moderate margin for batch latencies.
	noWrite := writeBase(false, 5)
	noWrite.Write.Enabled = false
	base := mustRun(t, noWrite)

	sep := mustRun(t, writeBase(false, 5))
	if sep.TotalTime > base.TotalTime*1.35 {
		t.Fatalf("separate write disks cost too much: %v vs %v", sep.TotalTime, base.TotalTime)
	}
}

func TestSharedWriteDisksContend(t *testing.T) {
	sep := mustRun(t, writeBase(false, 5))
	shared := mustRun(t, writeBase(true, 0))
	// Reads and writes on the same five arms must hurt substantially
	// compared with a separate five-disk output array.
	if shared.TotalTime < sep.TotalTime*sim.Time(1.5) {
		t.Fatalf("shared write disks too cheap: shared=%v separate=%v",
			shared.TotalTime, sep.TotalTime)
	}
	if len(shared.PerWriteDisk) != 0 {
		t.Fatal("shared mode should not report a separate write array")
	}
	// The input disks now carry reads + writes.
	var onInput int64
	for _, d := range shared.PerDisk {
		onInput += d.Blocks
	}
	if onInput != 2*shared.MergedBlocks {
		t.Fatalf("shared disks carried %d blocks, want %d", onInput, 2*shared.MergedBlocks)
	}
}

func TestWriteSingleOutputDiskBottleneck(t *testing.T) {
	// One output disk must absorb k·T·B of transfer; with 5 input disks
	// reading at kTB/5, the writer becomes the bottleneck and the total
	// approaches kTB on the output side.
	one := mustRun(t, writeBase(false, 1))
	two := mustRun(t, writeBase(false, 2))
	if one.TotalTime <= two.TotalTime {
		t.Fatalf("1 write disk (%v) not slower than 2 (%v)", one.TotalTime, two.TotalTime)
	}
	if one.WriteStall <= 0 {
		t.Fatal("bottlenecked writer shows no stall")
	}
}

func TestWriteBufferBoundsRunahead(t *testing.T) {
	cfg := writeBase(false, 1)
	cfg.Write.BatchBlocks = 5
	cfg.Write.BufferBlocks = 10
	res := mustRun(t, cfg)
	if res.WrittenBlocks != res.MergedBlocks {
		t.Fatalf("wrote %d of %d", res.WrittenBlocks, res.MergedBlocks)
	}
}

func TestWriteConfigValidation(t *testing.T) {
	cfg := writeBase(false, 1)
	cfg.Write.BatchBlocks = 10
	cfg.Write.BufferBlocks = 5
	if _, err := Run(cfg); err == nil {
		t.Fatal("buffer < batch accepted")
	}

	// Shared writes must fit the geometry: shrink the disk so input
	// plus output overflows.
	cfg = writeBase(true, 0)
	cfg.Disk.Geometry.Cylinders = 100 // 6400 blocks < 5000 input + 5000 output
	if _, err := Run(cfg); err == nil {
		t.Fatal("overflowing shared write config accepted")
	}
}

func TestWriteWithFiniteCPU(t *testing.T) {
	cfg := writeBase(false, 2)
	cfg.MergeTimePerBlock = sim.Ms(0.3)
	res := mustRun(t, cfg)
	if res.WrittenBlocks != res.MergedBlocks {
		t.Fatalf("wrote %d of %d", res.WrittenBlocks, res.MergedBlocks)
	}
}

func TestWriteDefaults(t *testing.T) {
	w := WriteConfig{Enabled: true}.withDefaults(7, 1)
	if w.Disks != 1 || w.BatchBlocks != 7 || w.BufferBlocks != 14 {
		t.Fatalf("defaults = %+v", w)
	}
	// The buffer scales with the output array so every arm can stream.
	w = WriteConfig{Enabled: true, Disks: 5}.withDefaults(10, 5)
	if w.BufferBlocks != 100 {
		t.Fatalf("5-disk buffer = %d, want 100", w.BufferBlocks)
	}
}
