// Command tmserve is the sharded transactional key-value server: the
// native engines (stm or mvstm), behind internal/server's HTTP/JSON API.
//
//	tmserve -addr :8080 -shards 8 -engine stm -rate-per-ip 10000
//	tmserve -profile 64 -latency-sample 64 -pprof
//
// Endpoints: GET /get?key=K, POST /put, POST /delete, GET /scan,
// POST /batch (multi-key transactional, atomic across shards),
// GET /stats, GET /metrics (Prometheus text exposition), GET /healthz,
// and — only with -pprof — the net/http/pprof handlers under
// /debug/pprof/. See DESIGN.md for the shard routing, the
// one-transaction-per-request argument and the observability story.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/server"
)

// options carries the flag values; split from flag parsing so tests
// cover the wiring without binding a socket.
type options struct {
	shards        int
	engine        string
	ratePerIP     float64
	profileK      int
	profileSample int
	latencySample int
	pprof         bool
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		shards    = flag.Int("shards", 8, "number of engine shards")
		engine    = flag.String("engine", "stm", "per-shard engine: stm or mvstm")
		ratePerIP = flag.Float64("rate-per-ip", 0, "per-IP request rate limit (req/s, 0 disables)")
		profileK  = flag.Int("profile", 0, "hot-key contention sketch slots (0 disables profiling)")
		profSamp  = flag.Int("profile-sample", 1, "admit roughly 1 in this many aborts into the sketch")
		latSamp   = flag.Int("latency-sample", 0, "sample roughly 1 in this many commits into the engine latency histograms (0 disables)")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (opt-in)")
	)
	flag.Parse()
	o := options{
		shards:        *shards,
		engine:        *engine,
		ratePerIP:     *ratePerIP,
		profileK:      *profileK,
		profileSample: *profSamp,
		latencySample: *latSamp,
		pprof:         *pprofOn,
	}
	srv, err := build(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmserve:", err)
		os.Exit(2)
	}
	log.Printf("tmserve: engine=%s shards=%d addr=%s rate-per-ip=%g profile=%d latency-sample=%d pprof=%v",
		o.engine, o.shards, *addr, o.ratePerIP, o.profileK, o.latencySample, o.pprof)
	log.Fatal(newHTTPServer(*addr, mount(srv, o.pprof)).ListenAndServe())
}

// newHTTPServer bounds how long a client may hold a connection without
// finishing a request: a stalled header, a trickled body and an idle
// keep-alive each close it. No WriteTimeout: pprof profiles stream for 30 s.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// build constructs the server from flag values.
func build(o options) (*server.Server, error) {
	return server.New(server.Config{
		Shards:        o.shards,
		Engine:        o.engine,
		RatePerIP:     o.ratePerIP,
		ProfileK:      o.profileK,
		ProfileSample: o.profileSample,
		LatencySample: o.latencySample,
	})
}

// mount assembles the process handler: the server's own (rate-limited,
// recovered, metered) handler at the root, with the pprof handlers
// mounted beside it when enabled — outside the rate limiter, since a
// profile fetch is an operator action, not tenant traffic.
func mount(srv *server.Server, withPprof bool) http.Handler {
	if !withPprof {
		return srv.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
