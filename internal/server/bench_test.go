package server

// Layer cells for the router: one request shape each, entered at
// Router.Batch / Router.Scan with decoded arguments, so the numbers are
// the router's and the engine's with no codec or socket in them. Both
// shapes are the repository benchmark's (bench/), on uniform keys: a 16-op
// transfer batch, and a 100-entry page with no upper bound.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

const (
	benchShards = 4
	benchKeys   = 20_000
)

func benchKey(i int) string { return fmt.Sprintf("user%09d", i) }

// preload stores benchKeys keys in 500-put batches.
func preload(tb testing.TB, r *Router) {
	tb.Helper()
	for lo := 0; lo < benchKeys; lo += 500 {
		ops := make([]Op, 500)
		for i := range ops {
			ops[i] = Op{Kind: "put", Key: benchKey(lo + i), Value: "100"}
		}
		if _, err := r.Batch(ops); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchRouter(b *testing.B, engine string) *Router {
	b.Helper()
	r, err := NewRouter(benchShards, engine)
	if err != nil {
		b.Fatal(err)
	}
	preload(b, r)
	return r
}

// benchEngines runs body on every parallel worker against a preloaded
// router, once per engine.
func benchEngines(b *testing.B, body func(b *testing.B, pb *testing.PB, r *Router, rng *rand.Rand)) {
	for _, engine := range []string{"stm", "mvstm"} {
		b.Run("engine="+engine, func(b *testing.B) {
			r := benchRouter(b, engine)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				body(b, pb, r, rand.New(rand.NewSource(rand.Int63())))
			})
		})
	}
}

// BenchmarkRouterBatch: 16 add ops (8 transfers of 1) on uniform keys,
// which land on all four shards.
func BenchmarkRouterBatch(b *testing.B) {
	benchEngines(b, func(b *testing.B, pb *testing.PB, r *Router, rng *rand.Rand) {
		ops := make([]Op, 16)
		for pb.Next() {
			for j := range ops {
				ops[j] = Op{Kind: "add", Key: benchKey(rng.Intn(benchKeys)), Delta: int64(2*(j%2) - 1)}
			}
			if _, err := r.Batch(ops); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouterScan: one 100-entry page from a uniform start, no upper
// bound, over 20,000 keys on four shards.
func BenchmarkRouterScan(b *testing.B) {
	benchEngines(b, func(b *testing.B, pb *testing.PB, r *Router, rng *rand.Rand) {
		for pb.Next() {
			kvs, err := r.Scan(benchKey(rng.Intn(benchKeys-100)), "", 100)
			if err != nil || len(kvs) != 100 {
				b.Fatalf("scan returned %d entries, %v", len(kvs), err)
			}
		}
	})
}

// Layer cells for the handlers: the same request shapes one layer up,
// entered at Server.Handler().ServeHTTP with a reusable request and a
// ResponseWriter that discards, so what a cell adds to the router cell
// below it is the codec's and the middlewares' — no socket, no net/http
// connection handling.

// nopWriter is a ResponseWriter that keeps nothing but the status.
type nopWriter struct {
	header http.Header
	status int
}

func (w *nopWriter) Header() http.Header         { return w.header }
func (w *nopWriter) WriteHeader(status int)      { w.status = status }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }

// handlerCell is one worker's reusable request against a handler.
type handlerCell struct {
	h    http.Handler
	req  *http.Request
	body bytes.Reader
	w    nopWriter
}

func newHandlerCell(h http.Handler, method, path string) *handlerCell {
	c := &handlerCell{h: h, req: httptest.NewRequest(method, path, nil), w: nopWriter{header: http.Header{}}}
	c.req.Body = io.NopCloser(&c.body)
	return c
}

// do serves one request with the given raw query and body and returns
// the status.
func (c *handlerCell) do(query string, body []byte) int {
	c.req.URL.RawQuery = query
	c.body.Reset(body)
	c.req.ContentLength = int64(len(body))
	c.w.status = http.StatusOK
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.status
}

// benchServer is benchRouter behind a Server on the stm engine.
func benchServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := New(Config{Shards: benchShards, Engine: "stm"})
	if err != nil {
		tb.Fatal(err)
	}
	preload(tb, s.Router())
	return s
}

// cellRequest is one pre-built request of a handler cell.
type cellRequest struct {
	query string
	body  []byte
}

// cellRequests builds the n requests a cell cycles through, before the
// timer starts, so that a cell allocates nothing of its own.
func cellRequests(n int, gen func(rng *rand.Rand) cellRequest) []cellRequest {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]cellRequest, n)
	for i := range reqs {
		reqs[i] = gen(rng)
	}
	return reqs
}

// benchHandler serves gen's requests on every parallel worker, each with
// its own cell against one preloaded server.
func benchHandler(b *testing.B, method, path string, gen func(rng *rand.Rand) cellRequest) {
	s := benchServer(b)
	reqs := cellRequests(1024, gen)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := newHandlerCell(s.Handler(), method, path)
		for i := rand.Intn(len(reqs)); pb.Next(); i++ {
			rq := &reqs[i%len(reqs)]
			if status := c.do(rq.query, rq.body); status != http.StatusOK {
				b.Fatalf("%s %s?%s: status %d", method, path, rq.query, status)
			}
		}
	})
}

// BenchmarkHandlerGet: GET /get of a uniform present key.
func BenchmarkHandlerGet(b *testing.B) {
	benchHandler(b, "GET", "/get", func(rng *rand.Rand) cellRequest {
		return cellRequest{query: "key=" + benchKey(rng.Intn(benchKeys))}
	})
}

// BenchmarkHandlerPut: POST /put overwriting a uniform present key.
func BenchmarkHandlerPut(b *testing.B) {
	benchHandler(b, "POST", "/put", func(rng *rand.Rand) cellRequest {
		return cellRequest{body: fmt.Appendf(nil, `{"key":%q,"value":"100"}`, benchKey(rng.Intn(benchKeys)))}
	})
}

// transferBatch is BenchmarkRouterBatch's request as a /batch body: 16
// add ops, 8 transfers of 1, on uniform keys.
func transferBatch(rng *rand.Rand) cellRequest {
	body := []byte(`{"ops":[`)
	for j := 0; j < 16; j++ {
		if j > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"kind":"add","key":%q,"delta":%d}`, benchKey(rng.Intn(benchKeys)), 2*(j%2)-1)
	}
	return cellRequest{body: append(body, "]}"...)}
}

// BenchmarkHandlerBatch: the 16-add transfer batch as POST /batch.
func BenchmarkHandlerBatch(b *testing.B) { benchHandler(b, "POST", "/batch", transferBatch) }

// BenchmarkHandlerScan: BenchmarkRouterScan's 100-entry page as GET /scan.
func BenchmarkHandlerScan(b *testing.B) {
	benchHandler(b, "GET", "/scan", func(rng *rand.Rand) cellRequest {
		return cellRequest{query: "limit=100&from=" + benchKey(rng.Intn(benchKeys-100))}
	})
}
