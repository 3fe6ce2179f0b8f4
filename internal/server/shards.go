package server

import "fmt"

// fnv32 is FNV-1a, the shard and bucket hash. Inlined rather than
// hash/fnv so the per-request path allocates nothing.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Router is the keyspace: a store of N hash-partitioned shard
// containers in one engine. It coordinates nothing. The engines are
// process-wide TMs, so the shards are containers inside one TM and every
// request — a cross-shard batch, a scan over all shards — is a single
// native transaction: atomic, opaque and failure-atomic by the engine's
// commit, and two requests wait for or abort each other only where they
// truly conflict, inside the engine where the abort taxonomy sees it.
type Router struct {
	store  store
	shards int
}

// NewRouter builds n shards of the named engine ("stm" or "mvstm").
func NewRouter(n int, engine string) (*Router, error) {
	return NewRouterProfiled(n, engine, false)
}

// NewRouterProfiled is NewRouter with hot-Var labeling: when label is
// set, each shard registers human-readable names for its contention
// units (map keys for stm, buckets for mvstm) so an installed contention
// sketch (stm.SetContentionProfiler and siblings) reports them by name.
// Labeling costs stm inserts one atomic pointer load plus a registry
// store per new key; leave it off when not profiling.
func NewRouterProfiled(n int, engine string, label bool) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shards = %d, want >= 1", n)
	}
	r := &Router{shards: n}
	switch engine {
	case "stm":
		r.store = newSTMBackend(n, label)
	case "mvstm":
		r.store = newMVSTMBackend(n, label)
	default:
		return nil, fmt.Errorf("unknown engine %q (want stm or mvstm)", engine)
	}
	return r, nil
}

// NumShards reports the shard count.
func (r *Router) NumShards() int { return r.shards }

// ShardOfKey reports which of n hash-partitioned shards owns key.
// Exported so callers outside the tier can tell which shard a key lands
// on without duplicating the partitioning hash.
func ShardOfKey(key string, n int) int {
	return int(fnv32(key) % uint32(n))
}

// ShardFor reports which shard owns key.
func (r *Router) ShardFor(key string) int {
	return ShardOfKey(key, r.shards)
}

// Get reads one key in a read-only transaction.
func (r *Router) Get(key string) (string, bool, error) {
	return r.store.Get(key)
}

// Stats returns the engine counters and the per-shard key counts.
func (r *Router) Stats() (Stats, []int) {
	lens, _ := r.store.shardLens() // monitoring only: an aborted count reports what it has
	return r.store.Stats(), lens
}

// Scan returns the first limit entries (all when limit is 0) of the
// half-open range [from, to) in key order, as one read-only transaction
// over every shard: keys are hash-partitioned, so each shard may hold
// any part of the range.
func (r *Router) Scan(from, to string, limit int) ([]KV, error) {
	return r.store.Scan(from, to, limit)
}

// Batch runs ops as one transaction, whichever shards their keys hash
// to; results come back in request order. Ops must already have passed
// ValidateOps.
func (r *Router) Batch(ops []Op) ([]OpResult, error) {
	return r.store.Apply(ops)
}
