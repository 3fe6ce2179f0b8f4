package server

import (
	"net/http"

	"repro/internal/enginekit"
	"repro/internal/telemetry"
)

// Config sizes a Server.
type Config struct {
	// Shards is the number of shard containers the keyspace is hashed
	// across inside the engine's one TM (minimum 1).
	Shards int
	// Engine selects the backend: "stm" (a TL2 OrderedMap per shard) or
	// "mvstm" (multi-version buckets).
	Engine string
	// RatePerIP caps each client IP at this many requests per second via
	// a fixed-rate token bucket; 0 or negative disables limiting.
	RatePerIP float64
	// ProfileK, when positive, installs a hot-Var contention sketch with
	// this many slots into the selected engine and labels the shards'
	// contention units, so /stats and /metrics report the keys (stm) or
	// buckets (mvstm) transactions abort on. The engine hook is
	// process-global, like the engines' other telemetry knobs.
	ProfileK int
	// ProfileSample admits roughly 1 in this many aborts into the sketch
	// (rounded up to a power of two; <= 1 admits every abort). Only
	// meaningful with ProfileK > 0.
	ProfileSample int
	// LatencySample, when positive, enables the selected engine's
	// commit-latency and attempts-per-commit sampling for roughly 1 in
	// this many transactions (rounded up to a power of two; 1 = every
	// call). The histograms feed /metrics.
	LatencySample int
}

// Server wires router, middlewares, and handlers into one http.Handler.
type Server struct {
	router *Router
	engine string
	// kit is the selected engine's cross-cutting state (profiler, latency
	// sampling and histograms), resolved once so nothing below switches on
	// the engine name.
	kit     *enginekit.Kit
	metrics *metricsSet
	sketch  *telemetry.Sketch
	handler http.Handler
}

// endpointNames is the fixed metrics vocabulary; the /stats payload has
// one entry per name.
var endpointNames = []string{"get", "put", "delete", "scan", "batch", "stats", "metrics"}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Engine == "" {
		cfg.Engine = "stm"
	}
	router, err := NewRouterProfiled(cfg.Shards, cfg.Engine, cfg.ProfileK > 0)
	if err != nil {
		return nil, err
	}
	s := &Server{
		router:  router,
		engine:  cfg.Engine,
		kit:     enginekit.ByName(cfg.Engine), // the router refused unknown engines
		metrics: newMetricsSet(endpointNames...),
	}
	if cfg.ProfileK > 0 {
		s.sketch = telemetry.NewSketch(cfg.ProfileK, cfg.ProfileSample)
		s.kit.SetContentionProfiler(s.sketch)
	}
	if cfg.LatencySample > 0 {
		s.kit.SetLatencySampling(cfg.LatencySample)
	}
	var rl *rateLimiter
	if cfg.RatePerIP > 0 {
		rl = newRateLimiter(cfg.RatePerIP)
	}
	s.handler = s.routes(rl)
	return s, nil
}

// routes wires the endpoints over s.router and s.metrics.
func (s *Server) routes(rl *rateLimiter) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, withMetrics(s.metrics, name, h))
	}
	route("GET /get", "get", s.handleGet)
	route("POST /put", "put", s.handlePut)
	route("POST /delete", "delete", s.handleDelete)
	route("GET /scan", "scan", s.handleScan)
	route("POST /batch", "batch", s.handleBatch)
	route("GET /stats", "stats", s.handleStats)
	route("GET /metrics", "metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Rate limiting sits outside the metrics wrapper on purpose: a 429
	// never reaches a handler, so it should not pollute endpoint latency;
	// recovery wraps everything.
	return withRecovery(withRateLimit(rl, mux))
}

// Handler returns the fully-wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Router exposes the shard router for in-process callers (tmload's
// in-process mode and tests).
func (s *Server) Router() *Router { return s.router }

// Sketch returns the installed contention sketch, or nil when the server
// was built without profiling (Config.ProfileK == 0).
func (s *Server) Sketch() *telemetry.Sketch { return s.sketch }
