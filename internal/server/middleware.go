package server

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/stm/budget"
)

// statusWriter captures the response code so the metrics middleware can
// count errors without the handlers reporting in-band.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the server's own writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

// withMetrics records per-endpoint latency and error counts into the
// set's histogram for name. The statusWriter is recycled once the handler
// has returned; one that panicked is left to the collector.
func withMetrics(m *metricsSet, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, http.StatusOK
		start := time.Now()
		next.ServeHTTP(sw, r)
		m.observe(name, time.Since(start), sw.status >= 400)
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
	})
}

// withRecovery turns a handler panic into a 500 instead of killing the
// connection (and, under some servers, the process).
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// rateLimiter holds one fixed-rate token bucket per client IP, built on
// budget.NewRateLimiter — the same Controller type the engines use for
// admission control, in its degenerate fixed-rate form. TryAdmit keeps
// refusals non-blocking: an over-limit client gets an immediate 429, not
// a queued wait that would tie up a server goroutine.
type rateLimiter struct {
	rate float64
	mu   sync.Mutex
	per  map[string]*budget.Controller
}

func newRateLimiter(ratePerIP float64) *rateLimiter {
	return &rateLimiter{rate: ratePerIP, per: make(map[string]*budget.Controller)}
}

func (rl *rateLimiter) admit(remoteAddr string) bool {
	ip, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		ip = remoteAddr
	}
	rl.mu.Lock()
	c, ok := rl.per[ip]
	if !ok {
		c = budget.NewRateLimiter(rl.rate)
		rl.per[ip] = c
	}
	rl.mu.Unlock()
	return c.TryAdmit()
}

// withRateLimit refuses over-limit clients with 429. A nil limiter
// (rate <= 0 in the config) disables limiting.
func withRateLimit(rl *rateLimiter, next http.Handler) http.Handler {
	if rl == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rl.admit(r.RemoteAddr) {
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// writeJSON and writeError answer everything but the data endpoints'
// successes (see codec.go): /stats and /healthz, whose shapes are
// open-ended, and every error reply — all off the hot path, so reflection
// and a fresh encoder are what they cost.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
