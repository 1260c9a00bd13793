package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/faults"
)

// This file is the serving boundary of the core package: the one
// result-JSON schema shared by `mergesim -json` and the simd HTTP
// daemon, and the canonical configuration encoding whose hash keys the
// daemon's result cache.

// DiskJSON is one disk's statistics in the shared result schema. The
// fault counters carry omitempty so a zero-fault run emits exactly the
// pre-fault-layer bytes.
type DiskJSON struct {
	Requests    int64   `json:"requests"`
	Blocks      int64   `json:"blocks"`
	BusySeconds float64 `json:"busy_seconds"`
	MeanSeekCyl float64 `json:"mean_seek_cylinders"`
	MaxQueueLen int     `json:"max_queue_len"`

	FaultRetries    int64   `json:"fault_retries,omitempty"`
	RetrySeconds    float64 `json:"fault_retry_seconds,omitempty"`
	OutageSeconds   float64 `json:"fault_outage_seconds,omitempty"`
	SlowdownSeconds float64 `json:"fault_slowdown_seconds,omitempty"`
}

// TrialJSON is one replication's metrics in the shared result schema.
type TrialJSON struct {
	Seed          uint64     `json:"seed"`
	TotalSeconds  float64    `json:"total_seconds"`
	SuccessRatio  float64    `json:"success_ratio"`
	Overlap       float64    `json:"mean_busy_disks"`
	StallSeconds  float64    `json:"cpu_stall_seconds"`
	StallP95Ms    float64    `json:"stall_p95_ms"`
	MeanDepth     float64    `json:"mean_prefetch_depth"`
	CachePeak     int64      `json:"cache_peak_blocks"`
	MergedBlocks  int64      `json:"merged_blocks"`
	WrittenBlocks int64      `json:"written_blocks,omitempty"`
	Disks         []DiskJSON `json:"disks"`

	// Fault totals across disks; all omitted on a zero-fault run.
	FaultRetries    int64   `json:"fault_retries,omitempty"`
	RetrySeconds    float64 `json:"fault_retry_seconds,omitempty"`
	OutageSeconds   float64 `json:"fault_outage_seconds,omitempty"`
	SlowdownSeconds float64 `json:"fault_slowdown_seconds,omitempty"`
}

// ResultJSON is the machine-readable summary of an Aggregate: the one
// schema emitted by every front-end (CLI and HTTP alike), so clients
// can switch between them without reparsing.
type ResultJSON struct {
	Strategy     string      `json:"strategy"`
	K            int         `json:"k"`
	D            int         `json:"d"`
	N            int         `json:"n"`
	BlocksPerRun int         `json:"blocks_per_run"`
	CacheBlocks  int         `json:"cache_blocks"`
	Trials       int         `json:"trials"`
	MeanSeconds  float64     `json:"mean_total_seconds"`
	CI95Seconds  float64     `json:"ci95_total_seconds"`
	MeanSuccess  float64     `json:"mean_success_ratio"`
	Results      []TrialJSON `json:"results"`

	// TraceTruncated is set by traced front-ends when the run's trace
	// recorder hit its event cap: the result numbers are complete (the
	// engine never depends on the recorder) but the exported trace — and
	// anything derived from it — is not. Absent on untraced runs.
	TraceTruncated bool `json:"trace_truncated,omitempty"`
}

// NewResultJSON converts an Aggregate into the shared result schema.
func NewResultJSON(agg Aggregate) ResultJSON {
	cfg := agg.Config
	out := ResultJSON{
		Strategy:     cfg.StrategyName(),
		K:            cfg.K,
		D:            cfg.D,
		N:            cfg.N,
		BlocksPerRun: cfg.BlocksPerRun,
		CacheBlocks:  cfg.CacheBlocks,
		Trials:       agg.Trials,
		MeanSeconds:  agg.TotalTime.Mean(),
		CI95Seconds:  agg.TotalTime.CI95(),
		MeanSuccess:  agg.SuccessRatio.Mean(),
	}
	for _, r := range agg.Results {
		tj := TrialJSON{
			Seed:          r.Config.Seed,
			TotalSeconds:  r.TotalTime.Seconds(),
			SuccessRatio:  r.SuccessRatio(),
			Overlap:       r.MeanConcurrencyWhenBusy,
			StallSeconds:  r.StallTime.Seconds(),
			StallP95Ms:    r.StallP95().Milliseconds(),
			MeanDepth:     r.MeanDepth,
			CachePeak:     r.CachePeak,
			MergedBlocks:  r.MergedBlocks,
			WrittenBlocks: r.WrittenBlocks,
		}
		tj.FaultRetries = r.Faults.Retries
		tj.RetrySeconds = r.Faults.RetryTime.Seconds()
		tj.OutageSeconds = r.Faults.OutageTime.Seconds()
		tj.SlowdownSeconds = r.Faults.SlowdownTime.Seconds()
		for _, d := range r.PerDisk {
			tj.Disks = append(tj.Disks, DiskJSON{
				Requests:        d.Requests,
				Blocks:          d.Blocks,
				BusySeconds:     d.BusyTime.Seconds(),
				MeanSeekCyl:     d.MeanSeekDistance(),
				MaxQueueLen:     d.MaxQueueLen,
				FaultRetries:    d.Retries,
				RetrySeconds:    d.RetryTime.Seconds(),
				OutageSeconds:   d.OutageTime.Seconds(),
				SlowdownSeconds: d.SlowdownTime.Seconds(),
			})
		}
		out.Results = append(out.Results, tj)
	}
	return out
}

// canonicalConfig mirrors every value field of Config in a fixed order
// with stable string names for the enums. Changing it invalidates every
// cached result keyed by Hash, so only extend it — never reorder.
type canonicalConfig struct {
	K            int     `json:"k"`
	D            int     `json:"d"`
	BlocksPerRun int     `json:"blocks_per_run"`
	RunLengths   []int   `json:"run_lengths,omitempty"`
	N            int     `json:"n"`
	AdaptiveN    bool    `json:"adaptive_n"`
	InterRun     bool    `json:"inter_run"`
	Synchronized bool    `json:"synchronized"`
	CacheBlocks  int     `json:"cache_blocks"`
	Unlimited    bool    `json:"unlimited_cache"`
	MergeMs      float64 `json:"merge_time_ms"`
	MaxSimMs     float64 `json:"max_sim_time_ms"`

	DiskCylinders    int     `json:"disk_cylinders"`
	DiskHeads        int     `json:"disk_heads"`
	DiskSectors      int     `json:"disk_sectors_per_track"`
	DiskSectorBytes  int     `json:"disk_sector_bytes"`
	DiskBlockBytes   int     `json:"disk_block_bytes"`
	DiskSeekMs       float64 `json:"disk_seek_ms_per_cyl"`
	DiskRotMs        float64 `json:"disk_avg_rotational_ms"`
	DiskTransferMs   float64 `json:"disk_transfer_ms_per_block"`
	DiskSeekModel    string  `json:"disk_seek_model"`
	DiskSeekSettleMs float64 `json:"disk_seek_settle_ms"`
	DiskSeekSqrtMs   float64 `json:"disk_seek_sqrt_ms"`
	DiskRotModel     string  `json:"disk_rotational_model"`
	DiskDiscipline   string  `json:"disk_discipline"`

	Placement string `json:"placement"`
	Admission string `json:"admission"`
	RunPolicy string `json:"run_policy"`

	WriteEnabled bool `json:"write_enabled"`
	WriteShared  bool `json:"write_shared"`
	WriteDisks   int  `json:"write_disks"`
	WriteBatch   int  `json:"write_batch_blocks"`
	WriteBuffer  int  `json:"write_buffer_blocks"`

	Seed           uint64 `json:"seed"`
	LegacyTimeline bool   `json:"record_timeline"`

	// Appended after the fields above (see the ordering rule); omitted
	// when nil so every pre-fault-layer cache key is unchanged.
	Faults []canonicalFault `json:"faults,omitempty"`
}

// canonicalFault mirrors faults.DiskSpec with fixed field order.
type canonicalFault struct {
	Disk          int             `json:"disk"`
	Slowdown      float64         `json:"slowdown,omitempty"`
	SlowdownAtMs  float64         `json:"slowdown_at_ms,omitempty"`
	ReadErrorProb float64         `json:"read_error_prob,omitempty"`
	MaxRetries    int             `json:"max_retries,omitempty"`
	Outages       []faults.Window `json:"outages,omitempty"`
}

// CanonicalJSON returns a deterministic JSON encoding of the
// configuration's value fields: equal configurations produce identical
// bytes, so the encoding (and its Hash) can key a result cache.
// Configurations carrying runtime callbacks or caller-supplied workload
// factories are refused — their results are not a pure function of the
// encodable state.
func (c Config) CanonicalJSON() ([]byte, error) {
	switch {
	case c.WorkloadFactory != nil:
		return nil, fmt.Errorf("core: config with a WorkloadFactory has no canonical encoding")
	case c.OnRequest != nil:
		return nil, fmt.Errorf("core: config with an OnRequest observer has no canonical encoding")
	}
	cc := canonicalConfig{
		K:            c.K,
		D:            c.D,
		BlocksPerRun: c.BlocksPerRun,
		RunLengths:   c.RunLengths,
		N:            c.N,
		AdaptiveN:    c.AdaptiveN,
		InterRun:     c.InterRun,
		Synchronized: c.Synchronized,
		CacheBlocks:  c.CacheBlocks,
		Unlimited:    c.CacheBlocks == cache.Unlimited,
		MergeMs:      c.MergeTimePerBlock.Milliseconds(),
		MaxSimMs:     c.MaxSimTime.Milliseconds(),

		DiskCylinders:    c.Disk.Geometry.Cylinders,
		DiskHeads:        c.Disk.Geometry.Heads,
		DiskSectors:      c.Disk.Geometry.SectorsPerTrack,
		DiskSectorBytes:  c.Disk.Geometry.SectorBytes,
		DiskBlockBytes:   c.Disk.BlockBytes,
		DiskSeekMs:       c.Disk.SeekPerCylinder.Milliseconds(),
		DiskRotMs:        c.Disk.AvgRotational.Milliseconds(),
		DiskTransferMs:   c.Disk.TransferPerBlock.Milliseconds(),
		DiskSeekModel:    c.Disk.Seek.String(),
		DiskSeekSettleMs: c.Disk.SeekSettle.Milliseconds(),
		DiskSeekSqrtMs:   c.Disk.SeekSqrtCoeff.Milliseconds(),
		DiskRotModel:     c.Disk.Rotational.String(),
		DiskDiscipline:   c.Disk.Discipline.String(),

		Placement: c.Placement.String(),
		Admission: c.Admission.String(),
		RunPolicy: c.RunPolicy.String(),

		WriteEnabled: c.Write.Enabled,
		WriteShared:  c.Write.Shared,
		WriteDisks:   c.Write.Disks,
		WriteBatch:   c.Write.BatchBlocks,
		WriteBuffer:  c.Write.BufferBlocks,

		Seed: c.Seed,
		// Config no longer has a timeline switch, but its key stays in
		// the encoding, always false: hashes are stable across releases,
		// and the result caches store entries under them.
		LegacyTimeline: false,
	}
	if c.Faults != nil {
		// A non-nil spec with no entries appends nothing, so it encodes
		// identically to nil: equal behavior means equal hash.
		for _, ds := range c.Faults.Disks {
			cc.Faults = append(cc.Faults, canonicalFault{
				Disk:          ds.Disk,
				Slowdown:      ds.Slowdown,
				SlowdownAtMs:  ds.SlowdownAtMs,
				ReadErrorProb: ds.ReadErrorProb,
				MaxRetries:    ds.MaxRetries,
				Outages:       ds.Outages,
			})
		}
	}
	return json.Marshal(cc)
}

// Hash returns a hex SHA-256 of CanonicalJSON: a stable identity for
// the simulation a configuration describes. Two configs with equal
// hashes produce identical Results (the engine is deterministic in its
// configuration), which is what makes result caching sound.
func (c Config) Hash() (string, error) {
	buf, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
