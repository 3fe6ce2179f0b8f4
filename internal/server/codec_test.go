package server

// Tests of the hand-written wire codec at the handler boundary: what it
// refuses (oversized bodies, trailing data, mis-cased members), that its
// query parsing and its replies are byte for byte what net/url and
// encoding/json produced, that the store keeps nothing of the pooled
// buffers, what a request allocates, and what a panic below the handlers
// leaves on the wire. The differential fuzz targets are in
// codec_fuzz_test.go.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// stubStore is a store whose transactions are counted, and panic or fail
// on demand.
type stubStore struct {
	calls int
	panic bool
	err   error
}

func (b *stubStore) call() error {
	b.calls++
	if b.panic {
		panic("backend exploded")
	}
	return b.err
}

func (b *stubStore) Get(string) (string, bool, error)      { return "", false, b.call() }
func (b *stubStore) Scan(_, _ string, _ int) ([]KV, error) { return nil, b.call() }
func (b *stubStore) Apply(ops []Op) ([]OpResult, error)    { return make([]OpResult, len(ops)), b.call() }
func (b *stubStore) Len() (int, error)                     { return 0, nil }
func (b *stubStore) Stats() Stats                          { return Stats{} }
func (b *stubStore) shardLens() ([]int, error)             { return []int{0}, nil }

// stubServer serves from st through the full middleware stack.
func stubServer(st store) http.Handler {
	s := &Server{router: &Router{store: st, shards: 1}, engine: "stub", metrics: newMetricsSet(endpointNames...)}
	return s.routes(nil)
}

// serve runs one request through h and returns the recorded response.
func serve(h http.Handler, method, target string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	return rec
}

// TestRequestBodiesAreBoundedAndWhole pins the two body bugs the reflection
// decoder had — it ignored whatever followed the first JSON value, and it
// buffered a body of any size — and the one documented tightening.
func TestRequestBodiesAreBoundedAndWhole(t *testing.T) {
	st := &stubStore{}
	h := stubServer(st)
	big := `{"key":"a","value":"` + strings.Repeat("v", maxBodyBytes) + `"}`
	bigBatch := `{"ops":[{"kind":"put","key":"a","value":"` + strings.Repeat("v", maxBodyBytes) + `"}]}`
	// unsized hides the length from httptest.NewRequest, so the limit has
	// to be found while reading.
	unsized := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s)) }
	for _, c := range []struct {
		name, path string
		body       io.Reader
		want       int
	}{
		{"trailing data after put", "/put", strings.NewReader(`{"key":"a","value":"b"}garbage`), 400},
		{"second value after put", "/put", strings.NewReader(`{"key":"a","value":"b"}{"key":"c"}`), 400},
		{"trailing data after delete", "/delete", strings.NewReader(`{"key":"a"}]`), 400},
		{"trailing data after batch", "/batch", strings.NewReader(`{"ops":[{"kind":"get","key":"a"}]} x`), 400},
		{"mis-cased member", "/put", strings.NewReader(`{"KEY":"a","value":"b"}`), 400},
		{"declared length over the limit", "/put", strings.NewReader(big), 413},
		{"undeclared length over the limit", "/put", unsized(big), 413},
		{"batch over the limit", "/batch", unsized(bigBatch), 413},
		{"delete over the limit", "/delete", strings.NewReader(big), 413},
	} {
		rec := serve(h, "POST", c.path, c.body)
		var reply struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); rec.Code != c.want || err != nil || reply.Error == "" {
			t.Errorf("%s: status %d, body %q; want %d with a JSON error", c.name, rec.Code, rec.Body, c.want)
		}
	}
	if st.calls != 0 {
		t.Errorf("%d transactions were started for refused requests, want 0", st.calls)
	}
	// What must keep working: white space around the value, and a body of
	// exactly the limit.
	atLimit := `{"key":"a","value":"` + strings.Repeat("v", maxBodyBytes-len(`{"key":"a","value":""}`)) + `"}`
	for _, body := range []string{" {\"key\":\"a\",\"value\":\"b\"} \r\n\t", atLimit} {
		if rec := serve(h, "POST", "/put", unsized(body)); rec.Code != 200 {
			t.Errorf("put of a %d-byte body: status %d, want 200", len(body), rec.Code)
		}
	}
	if st.calls != 2 {
		t.Errorf("%d transactions for 2 accepted puts", st.calls)
	}
}

// TestOversizedScratchIsNotPooled: a request that grew the scratch past
// maxPooledBytes must not leave its buffers behind in the pool.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	h := stubServer(&stubStore{})
	body := `{"key":"a","value":"` + strings.Repeat("v", 2*maxPooledBytes) + `"}`
	if rec := serve(h, "POST", "/put", strings.NewReader(body)); rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	for i := 0; i < 8; i++ { // the pool hands back this P's last Put first
		if sc := getScratch(); cap(sc.in) > maxPooledBytes {
			t.Fatalf("pool returned a scratch with a %d-byte body buffer", cap(sc.in))
		}
	}
}

// TestQueryParamMatchesURLQuery holds queryParam to r.URL.Query().Get.
func TestQueryParamMatchesURLQuery(t *testing.T) {
	for _, raw := range []string{
		"", "key=a", "key=", "key", "&&key=a&", "key=a&key=b", "other=1&key=a%20b+c", "k%65y=a", "key=%zz&key=ok",
		"%zz=1&key=a", "key=a;b&key=c", "a;key=1", "from=a&to=b&limit=10", "limit=10&limit=20", "key=a=b", "=a&key=b",
		"key=%e4%b8%96%E7%95%8C", "ke+y=1&key=2", "key=a%", "KEY=a",
	} {
		want, _ := url.ParseQuery(raw)
		for _, name := range []string{"key", "from", "to", "limit", "ke y", ""} {
			if got := queryParam(raw, name); got != want.Get(name) {
				t.Errorf("queryParam(%q, %q) = %q, url.Values.Get = %q", raw, name, got, want.Get(name))
			}
		}
	}
}

// awkwardStrings exercise every branch of the string escaper.
var awkwardStrings = []string{
	"", "plain", `quo"te\back`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<script>&amp;</script>", "line\u2028para\u2029sep",
	"bad\xffutf8\xc3", "\xed\xa0\x80", "世界 🌍", "\ufffd", "tail\xe4\xb8",
}

// referenceReplies encodes, with encoding/json, the reply shapes the data
// handlers had before the hand-written encoder replaced them.
func referenceReplies(key, value string, found bool) (get, put, del, scan, scanEmpty, batch []byte) {
	enc := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			panic(err)
		}
		return b.Bytes()
	}
	kvs := []KV{{Key: key, Value: value}, {Key: value, Value: key}}
	res := []OpResult{{Key: key, Found: found, Value: value}, {Key: value, Found: !found}}
	return enc(map[string]any{"key": key, "value": value, "found": found}),
		enc(map[string]any{"ok": true}),
		enc(map[string]any{"found": found}),
		enc(map[string]any{"kvs": kvs, "count": len(kvs)}),
		enc(map[string]any{"kvs": []KV(nil), "count": 0}),
		enc(map[string]any{"results": res})
}

// checkReplies compares every reply the encoder builds for (key, value,
// found) against the reference, byte for byte.
func checkReplies(t *testing.T, key, value string, found bool) {
	t.Helper()
	get, put, del, scan, scanEmpty, batch := referenceReplies(key, value, found)
	sc := new(scratch)
	for _, c := range []struct {
		name  string
		build func()
		want  []byte
	}{
		{"get", func() { sc.replyGet(key, value, found) }, get},
		{"put", sc.replyPut, put},
		{"delete", func() { sc.replyDelete(found) }, del},
		{"scan", func() { sc.replyScan([]KV{{Key: key, Value: value}, {Key: value, Value: key}}) }, scan},
		{"empty scan", func() { sc.replyScan(nil) }, scanEmpty},
		{"batch", func() {
			sc.replyBatch([]OpResult{{Key: key, Found: found, Value: value}, {Key: value, Found: !found}})
		}, batch},
	} {
		if c.build(); !bytes.Equal(sc.out, c.want) {
			t.Errorf("%s reply for (%q, %q, %v):\n got %s\nwant %s", c.name, key, value, found, sc.out, c.want)
		}
	}
}

func TestRepliesMatchEncodingJSON(t *testing.T) {
	for i, k := range awkwardStrings {
		for _, v := range awkwardStrings {
			checkReplies(t, k, v, i%2 == 0)
		}
	}
}

// TestStoreKeepsNothingOfTheRequest pins the retention invariant: once a
// request has returned, no key or value the store holds may alias the
// pooled scratch or the request body. A /batch inserts new keys and a /put
// another — plain ones, which decode as pieces of the body, and escaped
// ones, which decode through the scratch's unescape buffer — then every
// buffer the requests could have used is overwritten and the entries are
// read back through /scan.
func TestStoreKeepsNothingOfTheRequest(t *testing.T) {
	bothEngines(t, func(t *testing.T, engine string) {
		s, err := New(Config{Shards: 2, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		batch := []byte(`{"ops":[{"kind":"put","key":"plain-key","value":"plain-value"},` +
			`{"kind":"put","key":"esc-key","value":"esc\n\u00e9-value"},{"kind":"add","key":"counter","delta":12345}]}`)
		put := []byte(`{"key":"put-key","value":"put-value"}`)
		for path, body := range map[string][]byte{"/batch": batch, "/put": put} {
			if rec := serve(h, "POST", path, bytes.NewReader(body)); rec.Code != 200 {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
			for i := range body {
				body[i] = '#'
			}
		}
		// The handlers ran on this goroutine, so the pool hands their
		// scratches back first (under -race it may have dropped them, and
		// the overwritten request bodies are all that is left to alias).
		for i := 0; i < 8; i++ {
			sc := getScratch()
			for _, buf := range [][]byte{sc.in[:cap(sc.in)], sc.tmp[:cap(sc.tmp)], sc.out[:cap(sc.out)]} {
				for j := range buf {
					buf[j] = '#'
				}
			}
		}
		var reply struct{ KVs []KV }
		rec := serve(h, "GET", "/scan", nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		want := []KV{{"counter", "12345"}, {"esc-key", "esc\n\u00e9-value"}, {"plain-key", "plain-value"}, {"put-key", "put-value"}}
		if fmt.Sprint(reply.KVs) != fmt.Sprint(want) {
			t.Fatalf("after overwriting the request buffers the store holds %q, want %q", reply.KVs, want)
		}
	})
}

// TestHandlerAllocations puts ceilings on what a request allocates between
// Server.Handler().ServeHTTP and the reply: nothing for a get; for a put
// the key, the value, its box and the result slice; for a scan the
// router's runs and merged page; for a 16-add batch sixteen keys, sums and
// boxes and the result slice.
func TestHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	s := benchServer(t)
	for _, c := range []struct {
		method, path string
		rq           cellRequest
		ceiling      float64
	}{
		{"GET", "/get", cellRequest{query: "key=" + benchKey(7)}, 0},
		{"POST", "/put", cellRequest{body: []byte(`{"key":"` + benchKey(8) + `","value":"1000"}`)}, 4},
		{"GET", "/scan", cellRequest{query: "limit=100&from=" + benchKey(9)}, 2 + benchShards},
		{"POST", "/batch", transferBatch(rand.New(rand.NewSource(2))), 1 + 3*16},
	} {
		cell := newHandlerCell(s.Handler(), c.method, c.path)
		got := testing.AllocsPerRun(50, func() {
			if status := cell.do(c.rq.query, c.rq.body); status != http.StatusOK {
				t.Fatalf("%s %s: status %d", c.method, c.path, status)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s %s: %v allocations per request, ceiling %v", c.method, c.path, got, c.ceiling)
		}
	}
}

// TestBackendPanicIsOneReply: replies are encoded in full before the first
// byte is written, so a panic anywhere below a handler reaches
// withRecovery with nothing on the wire, and the client sees one complete
// 500 — never a 200's header or half its body with an error appended.
func TestBackendPanicIsOneReply(t *testing.T) {
	h := stubServer(&stubStore{panic: true})
	for _, c := range []struct{ method, target, body string }{
		{"GET", "/get?key=a", ""},
		{"GET", "/scan", ""},
		{"POST", "/put", `{"key":"a","value":"b"}`},
		{"POST", "/delete", `{"key":"a"}`},
		{"POST", "/batch", `{"ops":[{"kind":"get","key":"a"}]}`},
	} {
		rec := serve(h, c.method, c.target, strings.NewReader(c.body))
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != "{\"error\":\"internal error\"}\n" {
			t.Errorf("%s %s: status %d, body %q; want exactly one 500 error reply", c.method, c.target, rec.Code, rec.Body)
		}
	}
	// A backend error, as opposed to a panic, is a 500 carrying its text.
	h = stubServer(&stubStore{err: errors.New("engine refused")})
	if rec := serve(h, "GET", "/get?key=a", nil); rec.Code != 500 || !strings.Contains(rec.Body.String(), "engine refused") {
		t.Errorf("backend error: status %d, body %q", rec.Code, rec.Body)
	}
}

// TestStatusWriterUnwraps: the metrics middleware's wrapper must not hide
// the server's writer from http.ResponseController.
func TestStatusWriterUnwraps(t *testing.T) {
	var flushErr error
	h := withMetrics(newMetricsSet("get"), "get", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		flushErr = http.NewResponseController(w).Flush()
	}))
	rec := serve(h, "GET", "/", nil)
	if flushErr != nil || !rec.Flushed {
		t.Fatalf("Flush through the status writer: err %v, reached the recorder: %v", flushErr, rec.Flushed)
	}
}
