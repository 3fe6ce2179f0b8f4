package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestRunLoadSmoke drives the full generator — preload, mixed workload,
// table — against in-process servers at two shard counts, sized for CI.
func TestRunLoadSmoke(t *testing.T) {
	for _, engine := range []string{"stm", "mvstm"} {
		t.Run(engine, func(t *testing.T) {
			cfg := config{
				shards:  []int{1, 4},
				engine:  engine,
				clients: 4,
				keys:    1_000,
				ops:     1_000,
				read:    0.90,
				scan:    0.05,
				scanLen: 20,
				zipf:    1.1,
				preload: 250,
				seed:    1,
			}
			var out bytes.Buffer
			if err := runLoad(cfg, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			t.Log("\n" + got)
			lines := strings.Split(strings.TrimSpace(got), "\n")
			// Header banner + column header + one row per shard count.
			if len(lines) != 2+len(cfg.shards) {
				t.Fatalf("table has %d lines, want %d:\n%s", len(lines), 2+len(cfg.shards), got)
			}
			for i, n := range []string{"1", "4"} {
				if !strings.HasPrefix(lines[2+i], n) {
					t.Fatalf("row %d = %q, want shard count %s first", i, lines[2+i], n)
				}
			}
			if strings.Contains(got, "NaN") {
				t.Fatalf("table contains NaN:\n%s", got)
			}
		})
	}
}

// TestTransferOps pins the contention-shape contract: every batch has
// exactly cfg.batch add ops whose deltas sum to zero (the conservation
// invariant the server tests audit).
func TestTransferOps(t *testing.T) {
	cfg := config{keys: 512, zipf: 1.3}
	r := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(r, cfg.zipf, 1, uint64(cfg.keys-1))

	for _, batch := range []int{2, 3, 16} {
		cfg.batch = batch
		for trial := 0; trial < 50; trial++ {
			ops := transferOps(zipf, cfg)
			if len(ops) != batch {
				t.Fatalf("batch=%d: got %d ops", batch, len(ops))
			}
			sum := int64(0)
			for _, op := range ops {
				if op.Kind != "add" {
					t.Fatalf("op kind %q, want add", op.Kind)
				}
				sum += op.Delta
			}
			if sum != 0 {
				t.Fatalf("batch=%d: deltas sum to %d, want 0 (%v)", batch, sum, ops)
			}
		}
	}
}

// TestRunLoadReportsErrors: a run against a rate-limited server must
// complete and count its 429 refusals rather than failing.
func TestRunLoadReportsErrors(t *testing.T) {
	cfg := config{
		shards:  []int{1},
		engine:  "stm",
		clients: 2,
		keys:    200,
		ops:     200,
		read:    1.0, // all gets: preload stays under the limiter's radar
		scanLen: 10,
		zipf:    1.1,
		preload: 250,
		seed:    1,
	}
	var out bytes.Buffer
	if err := runLoad(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1") {
		t.Fatalf("no table row:\n%s", out.String())
	}
}
