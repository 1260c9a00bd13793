package disk

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Request is one I/O operation: Count contiguous blocks starting at
// block address Start (a flat block index on the disk). The disk pays
// one seek plus one rotational latency, then delivers blocks every
// TransferPerBlock.
//
// Completion is observable per block: OnBlock fires as each block
// lands (i is the 0-based index within the request); the request is
// finished when the call with i == Count-1 returns.
type Request struct {
	// Start is a flat block address on the disk.
	//detlint:unit blocks
	Start int
	// Count is the request length.
	//detlint:unit blocks
	Count int

	// OnBlock, if non-nil, is invoked at the simulated instant each
	// block finishes transferring.
	OnBlock func(i int, at sim.Time)

	// Tag carries caller context (e.g. which run the fetch serves).
	Tag any

	enqueuedAt sim.Time
}

// RequestTrace is the dispatch record of one request, for structured
// request logging.
type RequestTrace struct {
	Disk     int      `json:"disk"`
	Start    int      `json:"start_block"`
	Count    int      `json:"blocks"`
	Tag      any      `json:"tag,omitempty"`
	Enqueued sim.Time `json:"enqueued_ms"`
	Started  sim.Time `json:"started_ms"`
	Seek     sim.Time `json:"seek_ms"`
	Rotation sim.Time `json:"rotation_ms"`
	Transfer sim.Time `json:"transfer_ms"`
}

// Stats aggregates a disk's activity over a run.
type Stats struct {
	Requests int64
	// Blocks counts blocks transferred.
	//detlint:unit blocks
	Blocks int64

	SeekTime     sim.Time
	RotTime      sim.Time
	TransferTime sim.Time
	BusyTime     sim.Time

	QueueWait    sim.Time // total time requests spent queued
	MaxQueueLen  int
	SeekDistance int64 // total cylinders travelled

	// Fault counters, all zero unless a fault injector is installed
	// (see SetFaultInjector).
	Retries      int64    // transient read errors recovered by re-reads
	RetryTime    sim.Time // service time added by those re-reads
	OutageTime   sim.Time // dispatch time lost waiting out outage windows
	SlowdownTime sim.Time // service time added by the fail-slow multiplier
}

// MeanBlockTime returns the average busy time charged per block.
func (s Stats) MeanBlockTime() sim.Time {
	if s.Blocks == 0 {
		return 0
	}
	//detlint:allow simunits deliberate ms-per-block ratio: the conversion is the dimensional bridge
	return s.BusyTime / sim.Time(s.Blocks)
}

// MeanSeekDistance returns the average seek distance per request, in
// cylinders.
func (s Stats) MeanSeekDistance() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.SeekDistance) / float64(s.Requests)
}

// Disk is one independently operating drive. It is driven entirely by
// kernel events; SubmitNoWait may be called from any event callback.
type Disk struct {
	id     int
	k      *sim.Kernel
	params Params
	rot    *rng.Stream

	blocksPerCyl int
	capBlocks    int
	curCylinder  int
	busy         bool
	queue        []*Request
	sweepDir     int // SCAN direction: +1 toward higher cylinders

	// cur is the request in service; its block-delivery events read it
	// through blockFns, a table of pre-built per-block-index thunks that
	// is grown once and reused for every request, so steady-state
	// dispatch schedules no fresh closures. Deliveries are chained — each
	// block's event schedules the next from svcStart/svcBase/svcTpb — so
	// the calendar holds one delivery event per disk instead of one per
	// outstanding block.
	cur      *Request
	blockFns []func()
	svcStart sim.Time // dispatch instant of cur
	svcBase  sim.Time // seek + rotation + retries of cur
	svcTpb   sim.Time // per-block transfer of cur (after slowdown)

	// unparkFn resumes dispatch after an outage window; bound once.
	unparkFn func()

	stats Stats

	// onBusy, if set, observes busy-state transitions; the engine uses
	// it to integrate cross-disk concurrency.
	onBusy func(at sim.Time, busy bool)

	// onRequest, if set, observes every request at dispatch.
	onRequest func(RequestTrace)

	// inj, if set, injects faults at dispatch time; parked records a
	// pending outage wake-up so concurrent submits don't double-book it.
	inj      *faults.DiskInjector
	parked   bool
	faultErr error

	// tr, when non-nil, records this disk's busy-time decomposition on
	// trace track trTrack. A nil recorder costs one nil check per phase.
	tr      *trace.Recorder
	trTrack int
}

// New creates a disk on kernel k. The rotation stream must be dedicated
// to this disk so that draws are reproducible irrespective of the other
// disks' traffic.
func New(k *sim.Kernel, id int, params Params, rot *rng.Stream) (*Disk, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rot == nil {
		return nil, fmt.Errorf("disk %d: nil rotation stream", id)
	}
	d := &Disk{
		id:           id,
		k:            k,
		params:       params,
		rot:          rot,
		blocksPerCyl: params.BlocksPerCylinder(),
		capBlocks:    params.CapacityBlocks(),
		sweepDir:     1,
	}
	d.unparkFn = d.unpark
	return d, nil
}

// ID returns the disk's identifier.
func (d *Disk) ID() int { return d.id }

// Params returns the disk's configuration.
func (d *Disk) Params() Params { return d.params }

// Stats returns a snapshot of accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// Busy reports whether a request is in service.
func (d *Disk) Busy() bool { return d.busy }

// QueueLen returns the number of requests waiting (excluding in service).
func (d *Disk) QueueLen() int { return len(d.queue) }

// CurrentCylinder returns the head position.
func (d *Disk) CurrentCylinder() int { return d.curCylinder }

// SetBusyObserver installs fn to be called on every busy transition.
func (d *Disk) SetBusyObserver(fn func(at sim.Time, busy bool)) { d.onBusy = fn }

// SetRequestObserver installs fn to be called at every request dispatch
// with its timing decomposition.
func (d *Disk) SetRequestObserver(fn func(RequestTrace)) { d.onRequest = fn }

// SetTrace attaches a trace recorder (nil-safe): every dispatched
// request is decomposed into seek/rotation/retry/transfer phase spans
// on the given track, outage parks become outage spans, and every
// enqueue and dispatch drops a queue-depth sample. The recorder is
// observation-only — attaching one never changes timing.
func (d *Disk) SetTrace(tr *trace.Recorder, track int) {
	d.tr = tr
	d.trTrack = track
}

// SetFaultInjector installs the disk's fault model (nil = healthy). The
// injector is consulted at every dispatch: outage windows park the
// queue until recovery, the fail-slow multiplier inflates service time,
// and transient read errors re-read the request (a fresh rotational
// latency plus the full transfer) up to the injector's retry cap —
// beyond it the disk becomes unreadable, FaultError is set, and the
// simulation stops.
func (d *Disk) SetFaultInjector(inj *faults.DiskInjector) { d.inj = inj }

// FaultError returns the fatal fault that stopped the simulation, or
// nil. Non-nil only after the kernel run returns sim.ErrStopped.
func (d *Disk) FaultError() error { return d.faultErr }

// CylinderOf maps a block address to its cylinder.
func (d *Disk) CylinderOf(block int) int { return block / d.blocksPerCyl }

// SubmitNoWait enqueues req and starts service if the disk is idle.
// The caller observes progress through OnBlock alone, so submission
// allocates nothing: the request struct may be pooled and resubmitted
// once its last OnBlock has fired. The hotpath tag roots the hotalloc
// analyzer here — the same property CI's zero-alloc benchmark gate
// measures on BenchmarkDiskRequest.
//
//detlint:hotpath
func (d *Disk) SubmitNoWait(req *Request) {
	if req.Count <= 0 {
		panic(fmt.Sprintf("disk %d: request with Count=%d", d.id, req.Count))
	}
	last := req.Start + req.Count - 1
	if req.Start < 0 || last >= d.capBlocks {
		panic(fmt.Sprintf("disk %d: request [%d, %d] outside capacity %d blocks",
			d.id, req.Start, last, d.capBlocks))
	}
	req.enqueuedAt = d.k.Now()
	//detlint:allow hotalloc amortized: the queue's backing array reaches steady-state capacity and is reused
	d.queue = append(d.queue, req)
	if len(d.queue) > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = len(d.queue)
	}
	d.tr.QueueSample(d.trTrack, req.enqueuedAt, len(d.queue))
	if !d.busy {
		d.startNext()
	}
}

// pickNext removes and returns the next request according to the queue
// discipline. The queue is non-empty.
func (d *Disk) pickNext() *Request {
	idx := 0
	switch d.params.Discipline {
	case FCFS:
		// Arrival order: the head of the queue.
	case SSTF:
		best := math.MaxInt
		for i, r := range d.queue {
			dist := d.CylinderOf(r.Start) - d.curCylinder
			if dist < 0 {
				dist = -dist
			}
			if dist < best {
				best = dist
				idx = i
			}
		}
	case SCAN:
		idx = d.pickSCAN()
	}
	r := d.queue[idx]
	//detlint:allow hotalloc compaction within the existing backing array; removing an element never grows it
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	return r
}

// pickSCAN returns the queue index of the nearest request in the
// current sweep direction, reversing the sweep when nothing lies
// ahead. Ties on distance break by arrival order.
func (d *Disk) pickSCAN() int {
	if idx, ok := d.nearestSCAN(d.sweepDir); ok {
		return idx
	}
	d.sweepDir = -d.sweepDir
	idx, _ := d.nearestSCAN(d.sweepDir)
	return idx
}

// nearestSCAN returns the queued request closest to the head in
// direction dir. A method rather than a closure in pickSCAN: pickSCAN
// runs on every SCAN dispatch, and the closure was an allocation there.
func (d *Disk) nearestSCAN(dir int) (int, bool) {
	bestIdx, bestDist := -1, math.MaxInt
	for i, r := range d.queue {
		delta := (d.CylinderOf(r.Start) - d.curCylinder) * dir
		if delta < 0 {
			continue
		}
		if delta < bestDist {
			bestDist = delta
			bestIdx = i
		}
	}
	return bestIdx, bestIdx >= 0
}

// rotationalLatency draws the latency for a request starting at the
// given block, at the current simulated time.
func (d *Disk) rotationalLatency(startBlock int, at sim.Time) sim.Time {
	R := d.params.AvgRotational
	switch d.params.Rotational {
	case RotConstant:
		return R
	case RotUniform:
		return sim.Time(d.rot.UniformRange(0, 2*float64(R)))
	case RotPositional:
		// One revolution takes 2R. The angular offset of a block within
		// its track is its index within the track over the track size.
		period := 2 * float64(R)
		if period == 0 {
			return 0
		}
		blocksPerTrack := d.params.Geometry.SectorsPerTrack * d.params.Geometry.SectorBytes / d.params.BlockBytes
		if blocksPerTrack == 0 {
			blocksPerTrack = 1
		}
		target := float64(startBlock%blocksPerTrack) / float64(blocksPerTrack) * period
		now := math.Mod(float64(at), period)
		lat := target - now
		if lat < 0 {
			lat += period
		}
		return sim.Time(lat)
	default:
		panic("disk: unknown rotational model")
	}
}

// startNext dispatches the head-of-queue request. Called only when idle
// and the queue is non-empty.
func (d *Disk) startNext() {
	if d.parked {
		return // an outage wake-up is already scheduled
	}
	now := d.k.Now()
	if d.inj != nil {
		if wait := d.inj.OutageWait(now); wait > 0 {
			// The disk is down: nothing dispatches until the window ends.
			// Requests submitted meanwhile just queue behind the park.
			d.parked = true
			d.stats.OutageTime += wait
			d.tr.DiskPhase(d.trTrack, trace.PhaseOutage, now, now+wait)
			d.k.After(wait, d.unparkFn)
			return
		}
	}
	req := d.pickNext()
	d.tr.QueueSample(d.trTrack, now, len(d.queue))
	d.setBusy(true)
	d.stats.Requests++
	d.stats.Blocks += int64(req.Count)
	d.stats.QueueWait += now - req.enqueuedAt

	targetCyl := d.CylinderOf(req.Start)
	distance := targetCyl - d.curCylinder
	if distance < 0 {
		distance = -distance
	}
	seek := d.params.SeekTime(distance)
	rot := d.rotationalLatency(req.Start, now+seek)
	//detlint:allow simunits blocks times ms-per-block yields ms: the conversion is the dimensional bridge
	transfer := sim.Time(req.Count) * d.params.TransferPerBlock
	tpb := d.params.TransferPerBlock

	// Fault injection: fail-slow inflation first, then transient read
	// errors, each re-read paying a fresh rotational latency plus the
	// full (inflated) transfer before any block is delivered.
	var retryTime sim.Time
	if d.inj != nil {
		if f := d.inj.Slowdown(now); f > 1 {
			d.stats.SlowdownTime += (seek + rot + transfer) * sim.Time(f-1)
			seek *= sim.Time(f)
			rot *= sim.Time(f)
			transfer *= sim.Time(f)
			tpb *= sim.Time(f)
		}
		for retries := 0; d.inj.DrawError(); retries++ {
			if retries == d.inj.MaxRetries() {
				//detlint:allow hotalloc terminal fault path: allocates once as the simulation stops
				d.faultErr = &faults.UnreadableError{Disk: d.id, Start: req.Start, Attempts: retries + 1}
				d.k.Stop()
				return
			}
			d.stats.Retries++
			retryTime += d.rotationalLatency(req.Start, now+seek+rot+retryTime) + transfer
		}
		d.stats.RetryTime += retryTime
	}

	d.stats.SeekDistance += int64(distance)
	d.stats.SeekTime += seek
	d.stats.RotTime += rot
	d.stats.TransferTime += transfer
	d.stats.BusyTime += seek + rot + retryTime + transfer

	// The head finishes over the last block transferred.
	d.curCylinder = d.CylinderOf(req.Start + req.Count - 1)

	if d.tr != nil {
		// One span per phase, in service order; retries (re-read latency
		// plus transfer) sit between rotation and the delivered transfer.
		d.tr.DiskPhase(d.trTrack, trace.PhaseSeek, now, now+seek)
		d.tr.DiskPhase(d.trTrack, trace.PhaseRotation, now+seek, now+seek+rot)
		d.tr.DiskPhase(d.trTrack, trace.PhaseRetry, now+seek+rot, now+seek+rot+retryTime)
		d.tr.DiskPhase(d.trTrack, trace.PhaseTransfer, now+seek+rot+retryTime, now+seek+rot+retryTime+transfer)
	}

	if d.onRequest != nil {
		d.onRequest(RequestTrace{
			Disk:     d.id,
			Start:    req.Start,
			Count:    req.Count,
			Tag:      req.Tag,
			Enqueued: req.enqueuedAt,
			Started:  now,
			Seek:     seek,
			Rotation: rot + retryTime,
			Transfer: transfer,
		})
	}

	// Deliveries are chained: only block 0's event is scheduled here and
	// each delivery schedules its successor, keeping the calendar at one
	// pending delivery per disk. Every instant is computed as
	// now + (base + (i+1)*tpb) — the exact expression an up-front loop
	// would use — so timestamps are bit-identical to scheduling all
	// blocks at dispatch. Chaining preserves same-instant cross-disk
	// ordering too: tied deliveries fire in seq order, and each fires
	// before scheduling its successor, so successors inherit the same
	// relative order at the next instant. The thunks read d.cur at fire
	// time; only one request is ever in service, and d.cur is not
	// cleared until its last block has been delivered. tpb is positive
	// (New validates TransferPerBlock > 0 and a slowdown only scales it
	// up), so a request's deliveries never share an instant.
	d.cur = req
	d.growBlockFns(req.Count)
	d.svcStart, d.svcBase, d.svcTpb = now, seek+rot+retryTime, tpb
	d.k.At(now+(seek+rot+retryTime+sim.Time(1)*tpb), d.blockFns[0])
}

// growBlockFns extends the delivery-thunk table to cover n blocks.
func (d *Disk) growBlockFns(n int) {
	for i := len(d.blockFns); i < n; i++ {
		//detlint:allow hotalloc the thunk table is grown once to the deepest request and reused for every later dispatch
		d.blockFns = append(d.blockFns, func() { d.deliver(i) })
	}
}

// deliver completes block i of the in-service request: per-block
// callback and — after the last block — the next dispatch.
func (d *Disk) deliver(i int) {
	req := d.cur
	if i+1 < req.Count {
		d.k.At(d.svcStart+(d.svcBase+sim.Time(i+2)*d.svcTpb), d.blockFns[i+1])
	}
	if req.OnBlock != nil {
		req.OnBlock(i, d.k.Now())
	}
	if i == req.Count-1 {
		d.cur = nil
		d.setBusy(false)
		if len(d.queue) > 0 {
			d.startNext()
		}
	}
}

// unpark resumes dispatch when an outage window ends.
func (d *Disk) unpark() {
	d.parked = false
	if !d.busy && len(d.queue) > 0 {
		d.startNext()
	}
}

func (d *Disk) setBusy(b bool) {
	if d.busy == b {
		return
	}
	d.busy = b
	if d.onBusy != nil {
		d.onBusy(d.k.Now(), b)
	}
}
