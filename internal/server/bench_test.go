package server

// Layer cells for the router: one request shape each, entered at
// Router.Batch / Router.Scan with decoded arguments, so the numbers are
// the router's and the engine's with no codec or socket in them. Both
// shapes are the repository benchmark's (bench/), on uniform keys: a 16-op
// transfer batch, and a 100-entry page with no upper bound.

import (
	"fmt"
	"math/rand"
	"testing"
)

const (
	benchShards = 4
	benchKeys   = 20_000
)

func benchKey(i int) string { return fmt.Sprintf("user%09d", i) }

// benchRouter preloads benchKeys keys in 500-put batches.
func benchRouter(b *testing.B, engine string) *Router {
	b.Helper()
	r, err := NewRouter(benchShards, engine)
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < benchKeys; lo += 500 {
		ops := make([]Op, 500)
		for i := range ops {
			ops[i] = Op{Kind: "put", Key: benchKey(lo + i), Value: "100"}
		}
		if _, err := r.Batch(ops); err != nil {
			b.Fatal(err)
		}
	}
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
