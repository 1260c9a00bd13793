package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// maxBodyBytes bounds a request body; a sweep of MaxPoints fully
// spelled-out points fits comfortably under 1 MiB.
const maxBodyBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /v1/simulate  one point, aggregated over trials → core.ResultJSON
//	POST /v1/sweep     a batch of points → {"trials":N,"points":[...]}
//	POST /v1/explain   one traced point → result + stall-attribution report
//	POST /v1/optimize  a configuration search → optimum, knee and trace
//	GET  /healthz      {"status":"ok"} or 503 {"status":"draining"}
//	GET  /metrics      Prometheus text exposition
//
// Error statuses: 400 malformed or invalid request, 429 shed by
// admission control (Retry-After set), 503 timed out in queue or
// draining, 500 anything else.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.instrumented("simulate", s.handlePoint(s.Simulate)))
	mux.HandleFunc("POST /v1/sweep", s.instrumented("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/optimize", s.instrumented("optimize", s.handleOptimize))
	mux.HandleFunc("POST /v1/explain", s.instrumented("explain", s.handlePoint(s.Explain)))
	mux.HandleFunc("GET /healthz", s.instrumented("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrumented("metrics", s.handleMetrics))
	return s.withRequestID(mux)
}

// instrumented wraps a handler with request accounting — in-flight
// gauge, per-endpoint/status counter, latency histogram — and panic
// recovery: a panicking handler answers 500 and bumps
// simd_panics_total instead of killing the daemon (net/http would only
// kill the one connection, but a panic must still be a counted, alarmed
// event, not a silently dropped request).
func (s *Service) instrumented(endpoint string, fn func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //detlint:allow nondet request-latency instrumentation measures real wall time, never simulation state
		s.met.requestStarted()
		cw := &countingWriter{ResponseWriter: w}
		code := http.StatusInternalServerError
		defer func() {
			if v := recover(); v != nil {
				s.met.addPanic()
				log.Printf("panic in %s handler: %v\n%s", endpoint, v, debug.Stack())
				// Best effort: if the handler already started its
				// response, the status line is gone and this write fails
				// on the wire, but the accounting below still records
				// the request as a 500.
				writeErrorBody(cw, http.StatusInternalServerError, "internal error")
			}
			//detlint:allow nondet request-latency instrumentation measures real wall time, never simulation state
			s.met.requestFinished(endpoint, code, time.Since(start).Seconds(), cw.bytes)
		}()
		code = fn(cw, r)
	}
}

// handlePoint serves a one-point endpoint (simulate or explain) with
// serve, answering X-Cache with the point's CacheStatus.
func (s *Service) handlePoint(serve func(context.Context, SimulateRequest) ([]byte, CacheStatus, error)) func(http.ResponseWriter, *http.Request) int {
	return func(w http.ResponseWriter, r *http.Request) int {
		var req SimulateRequest
		if code := decodeBody(w, r, &req); code != 0 {
			return code
		}
		body, status, err := serve(r.Context(), req)
		if err != nil {
			return s.writeError(w, err)
		}
		w.Header().Set("X-Cache", string(status))
		return writeJSON(w, http.StatusOK, body)
	}
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) int {
	var req SweepRequest
	if code := decodeBody(w, r, &req); code != 0 {
		return code
	}
	body, hits, points, err := s.Sweep(r.Context(), req)
	if err != nil {
		return s.writeError(w, err)
	}
	w.Header().Set("X-Cache", fmt.Sprintf("%d/%d", hits, points))
	return writeJSON(w, http.StatusOK, body)
}

func (s *Service) handleOptimize(w http.ResponseWriter, r *http.Request) int {
	var req OptimizeRequest
	if code := decodeBody(w, r, &req); code != 0 {
		return code
	}
	body, served, evals, err := s.Optimize(r.Context(), req)
	if err != nil {
		return s.writeError(w, err)
	}
	w.Header().Set("X-Cache", fmt.Sprintf("%d/%d", served, evals))
	return writeJSON(w, http.StatusOK, body)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	if s.Draining() {
		return writeJSON(w, http.StatusServiceUnavailable, []byte(`{"status":"draining"}`))
	}
	return writeJSON(w, http.StatusOK, []byte(`{"status":"ok"}`))
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	entries, bytes := s.cache.size()
	s.met.writePrometheus(w, s.gate.depth(), entries, bytes, s.diskStats())
	writeGoMetrics(w)
	return http.StatusOK
}

// decodeBody strictly decodes a bounded JSON body into dst; a non-zero
// return is the error status already written. Strict means strict to
// the end: a body must be exactly one JSON value, so trailing bytes
// (concatenated objects, stray garbage) are a 400, not silently
// ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) int {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeErrorBody(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return http.StatusBadRequest
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeErrorBody(w, http.StatusBadRequest, "invalid request body: trailing data after JSON value")
		return http.StatusBadRequest
	}
	return 0
}

// writeError maps a service error onto its HTTP status.
func (s *Service) writeError(w http.ResponseWriter, err error) int {
	var reqErr *requestError
	switch {
	case errors.As(err, &reqErr):
		writeErrorBody(w, http.StatusBadRequest, err.Error())
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErrorBody(w, http.StatusTooManyRequests, err.Error())
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.met.addTimeout()
		writeErrorBody(w, http.StatusServiceUnavailable, "request timed out or was cancelled")
		return http.StatusServiceUnavailable
	default:
		writeErrorBody(w, http.StatusInternalServerError, err.Error())
		return http.StatusInternalServerError
	}
}

func writeErrorBody(w http.ResponseWriter, code int, msg string) {
	body, _ := json.Marshal(map[string]string{"error": msg})
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
	return code
}
