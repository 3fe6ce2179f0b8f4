// Command tmload is the closed-loop load generator for tmserve: N
// clients issue a mixed workload — Zipf-popular point reads (the E10
// read-mostly shape), ordered range scans (the E11 shape), and
// cross-key transfer batches — against either an in-process server (the
// default: one fresh server per requested shard count) or a remote
// tmserve (-url), and print a throughput/latency-percentile table per
// shard count.
//
//	tmload -shards 1,2,4,8 -clients 32 -keys 1000000 -ops 200000
//	tmload -url http://host:8080 -clients 64
//	tmload -smoke                      # CI-sized run
//	tmload -url http://host:8080 -batch 16 -zipf 1.4
//	                                   # contention shape: fat RMW
//	                                   # transactions on hot keys
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

type config struct {
	url     string  // non-empty: load a remote server instead of in-process ones
	shards  []int   // shard counts to sweep (in-process mode)
	engine  string  // per-shard engine for in-process servers
	clients int     // concurrent closed-loop clients
	keys    int     // keyspace size
	ops     int     // operations per run (split across clients)
	read    float64 // fraction of ops that are point gets
	scan    float64 // fraction of ops that are range scans
	scanLen int     // keys per scan
	zipf    float64 // Zipf s parameter (>1); popularity skew of point reads
	batch   int     // keys per transfer batch (paired ±1 add ops)
	preload int     // puts per preload batch
	seed    int64
}

func main() {
	var (
		url     = flag.String("url", "", "remote tmserve base URL (default: in-process servers)")
		shards  = flag.String("shards", "1,2,4,8", "comma-separated shard counts to sweep (in-process mode)")
		engine  = flag.String("engine", "stm", "per-shard engine for in-process servers: stm or mvstm")
		clients = flag.Int("clients", 16, "concurrent clients")
		keys    = flag.Int("keys", 100_000, "keyspace size")
		ops     = flag.Int("ops", 50_000, "operations per run")
		read    = flag.Float64("read", 0.90, "point-read fraction (E10 shape)")
		scanf   = flag.Float64("scan", 0.05, "range-scan fraction (E11 shape); the rest are transfer batches")
		scanLen = flag.Int("scanlen", 100, "keys per scan")
		zipf    = flag.Float64("zipf", 1.1, "Zipf s parameter for key popularity")
		batch   = flag.Int("batch", 2, "keys per transfer batch (read-modify-write adds, paired -1/+1)")
		seed    = flag.Int64("seed", 1, "workload RNG seed")
		smoke   = flag.Bool("smoke", false, "tiny CI-sized run (overrides sizes)")
	)
	flag.Parse()
	cfg := config{
		url:     *url,
		engine:  *engine,
		clients: *clients,
		keys:    *keys,
		ops:     *ops,
		read:    *read,
		scan:    *scanf,
		scanLen: *scanLen,
		zipf:    *zipf,
		batch:   *batch,
		preload: 500,
		seed:    *seed,
	}
	for _, f := range strings.Split(*shards, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "tmload: bad -shards entry %q\n", f)
			os.Exit(2)
		}
		cfg.shards = append(cfg.shards, n)
	}
	if *smoke {
		cfg.shards = []int{1, 4}
		cfg.clients = 4
		cfg.keys = 2_000
		cfg.ops = 2_000
	}
	if err := runLoad(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tmload:", err)
		os.Exit(1)
	}
}

// row is one line of the output table.
type row struct {
	label   string
	opsSec  float64
	p50     time.Duration
	p95     time.Duration
	p99     time.Duration
	errors  int
	elapsed time.Duration
}

// runLoad executes the sweep and prints the table.
func runLoad(cfg config, out io.Writer) error {
	if cfg.batch < 2 {
		cfg.batch = 2 // a transfer needs at least a debit and a credit
	}
	fmt.Fprintf(out, "tmload: engine=%s clients=%d keys=%d ops=%d mix=%.0f%%get/%.0f%%scan/%.0f%%batch zipf=%.2f batch=%d\n",
		cfg.engine, cfg.clients, cfg.keys, cfg.ops,
		100*cfg.read, 100*cfg.scan, 100*(1-cfg.read-cfg.scan), cfg.zipf, cfg.batch)
	fmt.Fprintf(out, "%-10s %12s %10s %10s %10s %8s\n", "shards", "ops/s", "p50(µs)", "p95(µs)", "p99(µs)", "errors")

	emit := func(r row) {
		fmt.Fprintf(out, "%-10s %12.0f %10d %10d %10d %8d\n",
			r.label, r.opsSec, r.p50.Microseconds(), r.p95.Microseconds(), r.p99.Microseconds(), r.errors)
	}

	if cfg.url != "" {
		r, err := runOne(cfg.url, "remote", cfg)
		if err != nil {
			return err
		}
		emit(r)
		return nil
	}
	for _, n := range cfg.shards {
		srv, err := server.New(server.Config{Shards: n, Engine: cfg.engine})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		r, err := runOne(ts.URL, strconv.Itoa(n), cfg)
		ts.Close()
		if err != nil {
			return err
		}
		emit(r)
	}
	return nil
}

// runOne preloads the keyspace and drives one closed-loop run.
func runOne(base, label string, cfg config) (row, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.clients * 2,
		MaxIdleConnsPerHost: cfg.clients * 2,
	}}
	defer client.CloseIdleConnections()

	if err := preload(base, client, cfg); err != nil {
		return row{}, err
	}

	type result struct {
		lats []time.Duration
		errs int
	}
	results := make([]result, cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		c := c
		share := cfg.ops / cfg.clients
		if c < cfg.ops%cfg.clients {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.seed + int64(c)))
			zipf := rand.NewZipf(r, cfg.zipf, 1, uint64(cfg.keys-1))
			res := &results[c]
			res.lats = make([]time.Duration, 0, share)
			for i := 0; i < share; i++ {
				ok, d := issue(base, client, r, zipf, cfg)
				res.lats = append(res.lats, d)
				if !ok {
					res.errs++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	errs := 0
	for _, res := range results {
		all = append(all, res.lats...)
		errs += res.errs
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)))
		if i >= len(all) {
			i = len(all) - 1
		}
		return all[i]
	}
	return row{
		label:   label,
		opsSec:  float64(len(all)) / elapsed.Seconds(),
		p50:     q(0.50),
		p95:     q(0.95),
		p99:     q(0.99),
		errors:  errs,
		elapsed: elapsed,
	}, nil
}

// key formats the i-th key; zero-padded so scans have a dense ordered
// range to walk.
func key(i uint64) string { return fmt.Sprintf("user%09d", i) }

// preload funds the keyspace in large put batches.
func preload(base string, client *http.Client, cfg config) error {
	for lo := 0; lo < cfg.keys; lo += cfg.preload {
		hi := min(lo+cfg.preload, cfg.keys)
		ops := make([]server.Op, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ops = append(ops, server.Op{Kind: "put", Key: key(uint64(i)), Value: "100"})
		}
		if code, err := postBatch(base, client, ops); err != nil {
			return fmt.Errorf("preload: %w", err)
		} else if code != http.StatusOK {
			return fmt.Errorf("preload batch: status %d", code)
		}
	}
	return nil
}

// issue sends one operation of the mixed workload, reporting success and
// latency.
func issue(base string, client *http.Client, r *rand.Rand, zipf *rand.Zipf, cfg config) (bool, time.Duration) {
	x := r.Float64()
	start := time.Now()
	ok := false
	switch {
	case x < cfg.read:
		// E10 shape: Zipf-popular point read.
		resp, err := client.Get(base + "/get?key=" + key(zipf.Uint64()))
		if err == nil {
			drain(resp)
			ok = resp.StatusCode == http.StatusOK
		}
	case x < cfg.read+cfg.scan:
		// E11 shape: ordered range scan from a random start.
		lo := uint64(r.Intn(cfg.keys))
		url := fmt.Sprintf("%s/scan?from=%s&to=%s&limit=%d", base, key(lo), key(lo+uint64(cfg.scanLen)), cfg.scanLen)
		resp, err := client.Get(url)
		if err == nil {
			drain(resp)
			ok = resp.StatusCode == http.StatusOK
		}
	default:
		code, err := postBatch(base, client, transferOps(zipf, cfg))
		ok = err == nil && code == http.StatusOK
	}
	return ok, time.Since(start)
}

// transferOps builds one transfer batch: cfg.batch Zipf-chosen keys,
// each a read-modify-write add, with deltas paired -1/+1 so the batch
// conserves the keyspace total (an odd trailing op adds 0 — still an
// RMW). Whichever shards the keys hash to, the batch is one native
// transaction on the server.
func transferOps(zipf *rand.Zipf, cfg config) []server.Op {
	ops := make([]server.Op, cfg.batch)
	for i := range ops {
		d := int64(-1)
		if i%2 == 1 {
			d = 1
		}
		if i == len(ops)-1 && len(ops)%2 == 1 {
			d = 0
		}
		ops[i] = server.Op{Kind: "add", Key: key(zipf.Uint64()), Delta: d}
	}
	return ops
}

func postBatch(base string, client *http.Client, ops []server.Op) (int, error) {
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	drain(resp)
	return resp.StatusCode, nil
}

// drain consumes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
