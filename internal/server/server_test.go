package server

// httptest-driven integration suite: the serving tier's three promises —
// conservation across concurrent transfer batches, cross-shard atomicity
// (no reader ever observes half a batch), and clean 429 refusals — each
// exercised over real HTTP against both engines.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// testClient wraps an httptest server with the JSON plumbing the tests
// would otherwise repeat.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, cfg Config) *testClient {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &testClient{t: t, srv: srv}
}

// do issues a request and decodes the JSON response into out (ignored
// when nil), returning the HTTP status.
func (c *testClient) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (c *testClient) batch(ops []Op) ([]OpResult, int) {
	c.t.Helper()
	var resp struct {
		Results []OpResult `json:"results"`
	}
	code := c.do("POST", "/batch", map[string]any{"ops": ops}, &resp)
	return resp.Results, code
}

// bothEngines runs f once per engine so every integration property is
// pinned on stm and mvstm alike.
func bothEngines(t *testing.T, f func(t *testing.T, engine string)) {
	for _, engine := range []string{"stm", "mvstm"} {
		t.Run(engine, func(t *testing.T) { f(t, engine) })
	}
}

func TestKVRoundTrip(t *testing.T) {
	bothEngines(t, func(t *testing.T, engine string) {
		c := newTestClient(t, Config{Shards: 4, Engine: engine})
		if code := c.do("POST", "/put", map[string]string{"key": "alpha", "value": "1"}, nil); code != http.StatusOK {
			t.Fatalf("put: status %d", code)
		}
		var got struct {
			Value string `json:"value"`
			Found bool   `json:"found"`
		}
		if code := c.do("GET", "/get?key=alpha", nil, &got); code != http.StatusOK {
			t.Fatalf("get: status %d", code)
		}
		if !got.Found || got.Value != "1" {
			t.Fatalf("get alpha = (%q, %v), want (1, true)", got.Value, got.Found)
		}
		var del struct {
			Found bool `json:"found"`
		}
		c.do("POST", "/delete", map[string]string{"key": "alpha"}, &del)
		if !del.Found {
			t.Fatal("delete did not find the key it just stored")
		}
		if c.do("GET", "/get?key=alpha", nil, &got); got.Found {
			t.Fatal("key survived delete")
		}
		if code := c.do("GET", "/get", nil, nil); code != http.StatusBadRequest {
			t.Fatalf("get without key: status %d, want 400", code)
		}
	})
}

func TestScanMergesShardsInOrder(t *testing.T) {
	bothEngines(t, func(t *testing.T, engine string) {
		c := newTestClient(t, Config{Shards: 4, Engine: engine})
		const n = 40
		var ops []Op
		for i := 0; i < n; i++ {
			ops = append(ops, Op{Kind: "put", Key: fmt.Sprintf("k%03d", i), Value: strconv.Itoa(i)})
		}
		if _, code := c.batch(ops); code != http.StatusOK {
			t.Fatalf("preload batch: status %d", code)
		}
		var scan struct {
			KVs   []KV `json:"kvs"`
			Count int  `json:"count"`
		}
		if code := c.do("GET", "/scan?from=k010&to=k030", nil, &scan); code != http.StatusOK {
			t.Fatalf("scan: status %d", code)
		}
		if scan.Count != 20 {
			t.Fatalf("scan [k010,k030) returned %d keys, want 20", scan.Count)
		}
		for i, kv := range scan.KVs {
			want := fmt.Sprintf("k%03d", 10+i)
			if kv.Key != want {
				t.Fatalf("scan result %d = %q, want %q (merged order broke)", i, kv.Key, want)
			}
		}
		// Limit applies after the merge, still in global order.
		if code := c.do("GET", "/scan?from=k000&limit=5", nil, &scan); code != http.StatusOK || scan.Count != 5 || scan.KVs[0].Key != "k000" {
			t.Fatalf("limited scan: status %d count %d first %q", code, scan.Count, scan.KVs[0].Key)
		}
	})
}

// crossShardKeys returns two keys that land on different shards, so the
// atomicity tests are guaranteed to span shards.
func crossShardKeys(t *testing.T, r *Router) (string, string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		a, b := fmt.Sprintf("acct%04d", i), fmt.Sprintf("acct%04d", i+1)
		if r.ShardFor(a) != r.ShardFor(b) {
			return a, b
		}
	}
	t.Fatal("no cross-shard key pair in 1000 tries")
	return "", ""
}

// TestBatchConservation: concurrent transfer batches move value between
// counters spread over every shard; any observed sum other than the
// initial total means a reader saw a half-applied batch or an update was
// lost.
func TestBatchConservation(t *testing.T) {
	bothEngines(t, func(t *testing.T, engine string) {
		s, err := New(Config{Shards: 4, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		c := &testClient{t: t, srv: srv}

		const (
			accounts = 8
			initial  = 1000
			workers  = 4
			transfer = 50
		)
		keys := make([]string, accounts)
		var init []Op
		for i := range keys {
			keys[i] = fmt.Sprintf("acct%d", i)
			init = append(init, Op{Kind: "add", Key: keys[i], Delta: initial})
		}
		if _, code := c.batch(init); code != http.StatusOK {
			t.Fatalf("initial funding: status %d", code)
		}
		readOps := make([]Op, accounts)
		for i, k := range keys {
			readOps[i] = Op{Kind: "get", Key: k}
		}
		sum := func(res []OpResult) int64 {
			var s int64
			for _, r := range res {
				n, _ := strconv.ParseInt(r.Value, 10, 64)
				s += n
			}
			return s
		}

		var writers, readers sync.WaitGroup
		stop := make(chan struct{})
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, code := c.batch(readOps)
				if code != http.StatusOK {
					t.Errorf("read batch: status %d", code)
					return
				}
				if got := sum(res); got != accounts*initial {
					t.Errorf("observed total %d, want %d — a reader saw a torn batch", got, accounts*initial)
					return
				}
			}
		}()
		for w := 0; w < workers; w++ {
			w := w
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; i < transfer; i++ {
					from := keys[(w+i)%accounts]
					to := keys[(w+i+1+w%3)%accounts]
					if from == to {
						to = keys[(w+i+2)%accounts]
					}
					_, code := c.batch([]Op{
						{Kind: "add", Key: from, Delta: -5},
						{Kind: "add", Key: to, Delta: 5},
					})
					if code != http.StatusOK {
						t.Errorf("transfer batch: status %d", code)
						return
					}
				}
			}()
		}
		writers.Wait()
		close(stop)
		readers.Wait()

		res, code := c.batch(readOps)
		if code != http.StatusOK {
			t.Fatalf("final read: status %d", code)
		}
		if got := sum(res); got != accounts*initial {
			t.Fatalf("final total %d, want %d — an update was lost", got, accounts*initial)
		}
	})
}

// TestCrossShardAtomicity: a writer keeps both halves of a cross-shard
// pair equal, batch after batch; concurrent batch readers must never see
// the halves differ.
func TestCrossShardAtomicity(t *testing.T) {
	bothEngines(t, func(t *testing.T, engine string) {
		s, err := New(Config{Shards: 4, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		c := &testClient{t: t, srv: srv}
		ka, kb := crossShardKeys(t, s.Router())

		const rounds = 100
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for v := 0; v <= rounds; v++ {
				val := strconv.Itoa(v)
				if _, code := c.batch([]Op{
					{Kind: "put", Key: ka, Value: val},
					{Kind: "put", Key: kb, Value: val},
				}); code != http.StatusOK {
					t.Errorf("writer batch: status %d", code)
					return
				}
			}
		}()
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					res, code := c.batch([]Op{
						{Kind: "get", Key: ka},
						{Kind: "get", Key: kb},
					})
					if code != http.StatusOK {
						t.Errorf("reader batch: status %d", code)
						return
					}
					if res[0].Value != res[1].Value {
						t.Errorf("torn read: %s=%q %s=%q — observed half a cross-shard batch",
							ka, res[0].Value, kb, res[1].Value)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestRateLimitRefusals: an over-limit burst must draw clean JSON 429s,
// and the client must be admitted again once the bucket refills.
func TestRateLimitRefusals(t *testing.T) {
	c := newTestClient(t, Config{Shards: 2, Engine: "stm", RatePerIP: 5})
	var refused, admitted int
	var lastErr struct {
		Error string `json:"error"`
	}
	for i := 0; i < 100; i++ {
		var out json.RawMessage
		code := c.do("GET", "/get?key=x", nil, &out)
		switch code {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			refused++
			if err := json.Unmarshal(out, &lastErr); err != nil {
				t.Fatalf("429 body is not JSON: %v", err)
			}
		default:
			t.Fatalf("status %d, want 200 or 429", code)
		}
	}
	if admitted == 0 {
		t.Fatal("everything was refused: the bucket should admit an initial burst")
	}
	if refused == 0 {
		t.Fatal("nothing was refused: 100 rushed requests at 5/s must overflow the bucket")
	}
	if lastErr.Error == "" {
		t.Fatal("429 body carried no error field")
	}
}

func TestBatchValidation(t *testing.T) {
	c := newTestClient(t, Config{Shards: 2, Engine: "stm"})
	if _, code := c.batch([]Op{{Kind: "increment", Key: "x"}}); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", code)
	}
	if _, code := c.batch(nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	if _, code := c.batch([]Op{{Kind: "put"}}); code != http.StatusBadRequest {
		t.Fatalf("empty key: status %d, want 400", code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	c := newTestClient(t, Config{Shards: 3, Engine: "stm"})
	c.do("POST", "/put", map[string]string{"key": "a", "value": "1"}, nil)
	c.do("GET", "/get?key=a", nil, nil)
	var stats struct {
		Engine    string                   `json:"engine"`
		Shards    int                      `json:"shards"`
		ShardKeys []int                    `json:"shard_keys"`
		Counters  Stats                    `json:"counters"`
		Endpoints map[string]EndpointStats `json:"endpoints"`
	}
	if code := c.do("GET", "/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Engine != "stm" || stats.Shards != 3 || len(stats.ShardKeys) != 3 {
		t.Fatalf("stats header = %q/%d shards/%d lens", stats.Engine, stats.Shards, len(stats.ShardKeys))
	}
	if stats.Counters.Commits == 0 {
		t.Fatal("engine counters show zero commits after a put")
	}
	if ep := stats.Endpoints["get"]; ep.Count == 0 {
		t.Fatal("endpoint metrics did not count the get")
	}
	total := 0
	for _, n := range stats.ShardKeys {
		total += n
	}
	if total != 1 {
		t.Fatalf("shard key counts sum to %d, want 1", total)
	}
}

func TestRecoveryMiddleware(t *testing.T) {
	h := withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("500 body %q is not the JSON error shape", rec.Body.String())
	}
}
