package service

import (
	"context"

	"repro/internal/core"
	"repro/internal/explain"
)

// explainResponse is the wire form of an explain: the shared result
// schema plus the attribution report. TraceTruncated shadows the
// embedded omitempty field so explain clients always see an explicit
// boolean — an absent key would force them to guess whether the
// attribution covers the whole timeline.
type explainResponse struct {
	core.ResultJSON
	TraceTruncated bool            `json:"trace_truncated"`
	Explain        *explain.Report `json:"explain"`
}

// Explain serves one attributed point: the explained variant of a
// simulate. Its run is traced, the internal/explain report is built
// and checked for conservation against the engine's own stall total,
// and the response is result + report. The report is a pure function
// of the canonical config hash, so the whole body is cached under
// hash/trials/explain and shared like any other flight: a repeat is a
// cache hit with no engine run, and concurrent identical explains share
// one run. The plain result body is also cached under the normal key
// for later untraced requests.
//
// Requests with the trace flag set are rejected (explain consumes the
// trace internally; ask for one or the other), as are trials > 1 (a
// trace records one replication's timeline).
func (s *Service) Explain(ctx context.Context, req SimulateRequest) ([]byte, CacheStatus, error) {
	if req.Trace {
		return nil, "", badRequestf("explain consumes the trace itself; drop the trace flag (use /v1/simulate with trace for raw spans)")
	}
	trials, err := s.trials(req.Trials)
	if err != nil {
		return nil, "", err
	}
	if trials != 1 {
		return nil, "", badRequestf("explain requires trials = 1 (attribution is one replication's timeline)")
	}
	cfg, err := req.config()
	if err != nil {
		return nil, "", err
	}
	a, err := s.resolveOne(ctx, cfg, trials, explained)
	return a.body, a.status, err
}
