// Package server is the network-facing serving tier over the native
// engines: an HTTP/JSON key-value API (get/put/delete/scan and a
// multi-key transactional batch) backed by stm or mvstm containers,
// with the keyspace hash-partitioned across N shard containers that all
// live in the engine's one process-wide TM — so every request, however
// many shards it touches, is exactly one native transaction.
//
// The package is layered the way the handlers read:
//
//	handlers (handlers.go)      — one function per endpoint
//	codec (codec.go)            — the data endpoints' fixed JSON schema,
//	                              read and written by hand into pooled
//	                              buffers; nothing the store keeps may
//	                              alias them
//	middlewares (middleware.go) — per-IP rate limiting, panic recovery,
//	                              per-endpoint latency/error metrics
//	router (shards.go)          — the shard count and the key→shard hash
//	backend (backend_*.go)      — the shard containers and the one
//	                              transaction each request runs in
package server

import (
	"fmt"
	"strconv"

	"repro/internal/enginekit"
)

// KV is one key/value pair, as served and scanned.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Op is one operation inside a transactional batch.
//
// Kinds: "get" reads Key; "put" stores Value at Key; "delete" removes
// Key; "add" treats the value at Key as a decimal integer (missing or
// non-numeric reads as 0), adds Delta, and stores the sum — the
// conservation primitive that makes transfer-shaped batches expressible
// in a single request.
type Op struct {
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
	Delta int64  `json:"delta,omitempty"`
}

// OpResult is the per-op outcome of a batch. Found reports presence for
// get/delete and is always true for put/add; Value carries the read
// value (get), the stored value (put), or the post-add sum (add).
type OpResult struct {
	Key   string `json:"key"`
	Found bool   `json:"found"`
	Value string `json:"value,omitempty"`
}

// Stats is the engine-counter snapshot served at /stats, unified across
// the engine packages. AbortReasons carries the per-class abort taxonomy
// under the engines' stable snake_case keys; the clock-strategy counters
// are populated where the engine maintains them (all by stm,
// ClockBlockClaims also by mvstm) and stay zero elsewhere.
type Stats struct {
	Commits      uint64            `json:"commits"`
	ROCommits    uint64            `json:"ro_commits"`
	Aborts       uint64            `json:"aborts"`
	BudgetAborts uint64            `json:"budget_aborts"`
	AbortReasons map[string]uint64 `json:"abort_reasons,omitempty"`

	Extensions       uint64 `json:"extensions,omitempty"`
	ClockIncrements  uint64 `json:"clock_increments,omitempty"`
	ClockAdoptions   uint64 `json:"clock_adoptions,omitempty"`
	ClockBlockClaims uint64 `json:"clock_block_claims,omitempty"`
	RTSAdvances      uint64 `json:"rts_advances,omitempty"`
}

// Backend is a store of one or more shard containers inside one engine
// (stm or mvstm). Get, Scan and Apply are each ONE native transaction —
// read-only for the first two — whatever number of shards the keys hash
// to, so a batch is atomic, opaque and failure-atomic by the engine's
// own commit and a scan is a single consistent snapshot. The standalone
// backends (NewSTMBackend, NewMVSTMBackend) are the one-shard case of
// the store the Router serves from.
type Backend interface {
	Get(key string) (value string, found bool, err error)
	Scan(from, to string, limit int) ([]KV, error)
	Apply(ops []Op) ([]OpResult, error)
	Len() (int, error)
	Stats() Stats
}

// store is a Backend that also reports its key count shard by shard,
// for /stats and /metrics; Len is the sum.
type store interface {
	Backend
	shardLens() ([]int, error)
}

// commonStats fills the counters every engine keeps the same way from
// the engine kit's snapshot; a backend adds its engine's protocol
// counters to the result.
func commonStats(k *enginekit.Kit) Stats {
	c := k.Common()
	return Stats{
		Commits:      c.Commits,
		ROCommits:    c.ROCommits,
		Aborts:       c.Aborts,
		BudgetAborts: c.BudgetAborts,
		AbortReasons: c.AbortReasons.Map(),
	}
}

func sumLens(lens []int, err error) (int, error) {
	n := 0
	for _, l := range lens {
		n += l
	}
	return n, err
}

// ValidateOps rejects unknown op kinds and empty keys before the
// transaction starts, so Apply never fails on op content.
func ValidateOps(ops []Op) error {
	if len(ops) == 0 {
		return fmt.Errorf("empty batch")
	}
	for i, op := range ops {
		switch op.Kind {
		case "get", "put", "delete", "add":
		default:
			return fmt.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
		if op.Key == "" {
			return fmt.Errorf("op %d: empty key", i)
		}
	}
	return nil
}

// applyOps interprets a batch against primitive accessors that the
// caller runs inside one engine transaction; both backends share it so
// the op semantics cannot drift between engines. It assigns every
// element of res, so a re-run attempt overwrites the previous one's.
func applyOps(ops []Op, res []OpResult, get func(string) (string, bool), put func(string, string), del func(string) bool) {
	for i, op := range ops {
		switch op.Kind {
		case "get":
			v, ok := get(op.Key)
			res[i] = OpResult{Key: op.Key, Found: ok, Value: v}
		case "put":
			put(op.Key, op.Value)
			res[i] = OpResult{Key: op.Key, Found: true, Value: op.Value}
		case "delete":
			res[i] = OpResult{Key: op.Key, Found: del(op.Key)}
		case "add":
			cur, _ := get(op.Key)
			n, _ := strconv.ParseInt(cur, 10, 64) // missing/non-numeric reads as 0
			sum := strconv.FormatInt(n+op.Delta, 10)
			put(op.Key, sum)
			res[i] = OpResult{Key: op.Key, Found: true, Value: sum}
		}
	}
}

// mergeRuns k-way-merges sorted runs with pairwise-distinct keys (each
// shard or bucket contributes one) into a fresh slice of the limit
// smallest entries — all of them when limit is 0 — and nil when there
// are none. The runs are a min-heap on their first key, so the work is
// O(len(runs) + out·log len(runs)) whatever the runs hold beyond what is
// returned. It consumes the runs' slice headers, never their elements.
func mergeRuns(runs [][]KV, limit int) []KV {
	heap, total := runs[:0], 0
	for _, r := range runs {
		if len(r) > 0 {
			heap = append(heap, r)
			total += len(r)
		}
	}
	if limit > 0 && total > limit {
		total = limit
	}
	if total == 0 {
		return nil
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	out := make([]KV, 0, total)
	for len(out) < total {
		out = append(out, heap[0][0])
		if heap[0] = heap[0][1:]; len(heap[0]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return out
}

// siftDown restores the heap order below position i.
func siftDown(heap [][]KV, i int) {
	for {
		c := 2*i + 1
		if c >= len(heap) {
			return
		}
		if c+1 < len(heap) && heap[c+1][0].Key < heap[c][0].Key {
			c++
		}
		if heap[i][0].Key <= heap[c][0].Key {
			return
		}
		heap[i], heap[c] = heap[c], heap[i]
		i = c
	}
}
