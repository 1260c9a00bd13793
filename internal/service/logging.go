package service

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the header carrying the request ID: echoed from
// the client when present (so IDs propagate through proxies), assigned
// by the daemon otherwise, and always set on the response so client and
// server logs can be correlated.
const RequestIDHeader = "X-Request-ID"

// idSource mints process-unique request IDs: a random boot nonce (so
// IDs from different daemon instances never collide in aggregated logs)
// plus an atomic counter (so minting is lock-free and ordered).
type idSource struct {
	nonce string
	seq   atomic.Uint64
}

func newIDSource() *idSource {
	var b [6]byte
	// crypto/rand never fails on the supported platforms; an all-zero
	// nonce would still yield valid (just less distinctive) IDs.
	_, _ = rand.Read(b[:])
	return &idSource{nonce: hex.EncodeToString(b[:])}
}

func (s *idSource) next() string {
	return fmt.Sprintf("%s-%06d", s.nonce, s.seq.Add(1))
}

// countingWriter observes the status code and body bytes a handler
// writes, for the size histogram and the request log.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

// withRequestID assigns (or propagates) the request ID, exposes it on
// the response and — when a Logger is configured — emits one
// structured log line per request carrying it.
func (s *Service) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = s.ids.next()
		}
		w.Header().Set(RequestIDHeader, id)
		if s.opts.Logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now() //detlint:allow nondet request logging measures real wall time, never simulation state
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		status := cw.status
		if status == 0 {
			status = http.StatusOK
		}
		//detlint:allow nondet request logging measures real wall time, never simulation state
		elapsed := time.Since(start)
		s.opts.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", cw.bytes),
			slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
			slog.String("cache", cw.Header().Get("X-Cache")),
		)
	})
}
