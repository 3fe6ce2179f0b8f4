package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBuildRejectsBadEngine(t *testing.T) {
	if _, err := build(options{shards: 4, engine: "postgres"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := build(options{shards: -1, engine: "stm"}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestStalledHeaderIsDisconnected: a client that opens a connection and
// stops mid-header must be cut off by the server, not held forever (the
// slow-loris shape; a bare http.ListenAndServe never closes it).
func TestStalledHeaderIsDisconnected(t *testing.T) {
	srv, err := build(options{shards: 1, engine: "stm"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(ln.Addr().String(), mount(srv, false))
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("unbounded connection phase: header %v, read %v, idle %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	go hs.Serve(ln) // returns ErrServerClosed at the Close below
	defer hs.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: stalled"); err != nil {
		t.Fatal(err)
	}
	const grace = 3 * time.Second
	if err := c.SetReadDeadline(time.Now().Add(hs.ReadHeaderTimeout + grace)); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled connection not closed within %v: read %d bytes, err %v", hs.ReadHeaderTimeout+grace, n, err)
	}
}

// TestPprofOptIn: the pprof handlers must be reachable only when the
// -pprof flag asked for them.
func TestPprofOptIn(t *testing.T) {
	srv, err := build(options{shards: 1, engine: "stm"})
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		ts := httptest.NewServer(mount(srv, on))
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			ts.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		if on && resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof enabled: index status %d", resp.StatusCode)
		}
		if !on && resp.StatusCode == http.StatusOK {
			t.Fatal("pprof served without opt-in")
		}
		// The KV API must serve through the mount either way.
		resp, err = http.Get(ts.URL + "/healthz")
		if err != nil {
			ts.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz through mount(pprof=%v): status %d", on, resp.StatusCode)
		}
		ts.Close()
	}
}

// TestMetricsThroughBuiltServer: a profiled build must expose the
// Prometheus endpoint with the taxonomy series.
func TestMetricsThroughBuiltServer(t *testing.T) {
	srv, err := build(options{shards: 2, engine: "stm", profileK: 16, profileSample: 1, latencySample: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mount(srv, false))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tm_commits_total", "tm_aborts_by_reason_total", "tm_hot_key_aborts", "tm_commit_latency_us_bucket"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestBuiltServerServes smoke-tests the assembled handler end to end:
// the binary's wiring, minus the socket.
func TestBuiltServerServes(t *testing.T) {
	for _, engine := range []string{"stm", "mvstm"} {
		t.Run(engine, func(t *testing.T) {
			srv, err := build(options{shards: 4, engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp, err := http.Post(ts.URL+"/put", "application/json",
				strings.NewReader(`{"key":"boot","value":"ok"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("put: status %d", resp.StatusCode)
			}

			resp, err = http.Get(ts.URL + "/get?key=boot")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got struct {
				Value string `json:"value"`
				Found bool   `json:"found"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if !got.Found || got.Value != "ok" {
				t.Fatalf("get boot = (%q, %v), want (ok, true)", got.Value, got.Found)
			}
		})
	}
}
