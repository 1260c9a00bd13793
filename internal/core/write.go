package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WriteConfig models the merge output traffic the paper deliberately
// excludes ("the write traffic will not be considered in this study"
// — it assumes a separate set of output disks). Enabling it lets the
// library both validate that assumption (separate write disks barely
// move the total) and quantify what happens when reads and writes
// share arms.
type WriteConfig struct {
	// Enabled turns on output modelling; every merged block produces
	// one output block.
	Enabled bool

	// Shared routes writes to the input disks (contention!) instead of
	// a separate output array.
	Shared bool

	// Disks is the size of the separate output array (ignored when
	// Shared; default 1).
	Disks int

	// BatchBlocks is the write-behind granularity: output blocks
	// accumulate and are written Batch at a time, amortizing seek and
	// latency exactly like intra-run prefetching does for reads
	// (default: the read-side N).
	BatchBlocks int

	// BufferBlocks bounds the unwritten output the CPU may run ahead
	// by; a full buffer stalls the merge. The default is two batches
	// per output target, enough to keep every target streaming.
	BufferBlocks int
}

// withDefaults resolves defaulted fields against the read-side config.
// targets is the number of output disks writes will round-robin over.
func (w WriteConfig) withDefaults(readN, targets int) WriteConfig {
	if w.Disks <= 0 {
		w.Disks = 1
	}
	if w.BatchBlocks <= 0 {
		w.BatchBlocks = readN
	}
	if w.BufferBlocks <= 0 {
		w.BufferBlocks = 2 * w.BatchBlocks * targets
	}
	return w
}

// targets returns how many disks output traffic spreads over.
func (w WriteConfig) targets(c Config) int {
	if w.Shared {
		return c.D
	}
	if w.Disks <= 0 {
		return 1
	}
	return w.Disks
}

// validate reports the first write-config error, or nil.
func (w WriteConfig) validate(c Config) error {
	if !w.Enabled {
		return nil
	}
	ww := w.withDefaults(c.N, w.targets(c))
	if ww.BufferBlocks < ww.BatchBlocks {
		return fmt.Errorf("core: write buffer %d smaller than batch %d", ww.BufferBlocks, ww.BatchBlocks)
	}
	if !w.Shared {
		return nil
	}
	// Shared mode appends output after the input runs; the geometry
	// must hold both.
	lengths := c.runLengths()
	perDisk := make([]int, c.D)
	for r, n := range lengths {
		perDisk[r%c.D] += n // approximation of round-robin packing
	}
	out := int(c.TotalBlocks())/c.D + 1
	for _, used := range perDisk {
		if used+out > c.Disk.CapacityBlocks() {
			return fmt.Errorf("core: shared write traffic needs %d blocks on a disk, geometry holds %d",
				used+out, c.Disk.CapacityBlocks())
		}
	}
	return nil
}

// writer holds the merge's output-stream state. The merge machine
// drives it: produce buffers each merged block, flush submits a batch,
// and finishUp drains the tail (see machine.go).
type writer struct {
	cfg   WriteConfig
	disks []*disk.Disk // the output targets (input disks when shared)

	// nextAddr[i] is the next sequential output address on target i;
	// target selection is round-robin for balance.
	nextAddr   []int
	nextTarget int

	pending     int // produced, unwritten blocks (buffered)
	outstanding int // blocks inside submitted write requests

	// Stats.
	written    int64
	writeStall sim.Time
}

// newWriter wires output modelling into the engine; returns nil when
// disabled.
func newWriter(e *engine) (*writer, error) {
	if !e.cfg.Write.Enabled {
		return nil, nil
	}
	w := &writer{
		cfg: e.cfg.Write.withDefaults(e.cfg.N, e.cfg.Write.targets(e.cfg)),
	}
	if w.cfg.Shared {
		w.disks = e.disks
		// Output regions start after each disk's resident input runs.
		w.nextAddr = make([]int, len(e.disks))
		for dk := range e.disks {
			used := 0
			for _, r := range e.lay.RunsOnDisk(dk) {
				if e.lay.HomeDisk(r) == dk {
					used += e.lay.RunLength(r)
				}
			}
			if e.lay.Placement() == layout.Striped {
				used = e.lay.MaxBlocksOnDisk()
			}
			w.nextAddr[dk] = used
		}
		return w, nil
	}
	// Separate output array: fresh disks numbered after the input ones.
	w.nextAddr = make([]int, w.cfg.Disks)
	for i := 0; i < w.cfg.Disks; i++ {
		id := len(e.disks) + i
		dk, err := disk.New(e.k, id, e.cfg.Disk, e.writeRot.SplitIndexed("write-disk", i))
		if err != nil {
			return nil, err
		}
		dk.SetBusyObserver(e.observeBusy)
		if e.cfg.OnRequest != nil {
			dk.SetRequestObserver(e.cfg.OnRequest)
		}
		if e.cfg.Trace != nil {
			e.cfg.Trace.Track(trace.CPUTrack+1+id, fmt.Sprintf("write %d", i))
			dk.SetTrace(e.cfg.Trace, trace.CPUTrack+1+id)
		}
		w.disks = append(w.disks, dk)
	}
	return w, nil
}
