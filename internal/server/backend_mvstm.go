package server

import (
	"fmt"
	"sort"

	"repro/internal/enginekit"
	"repro/stm/mvstm"
)

// mvstmBackendBuckets is the hash-bucket count per shard. Buckets are
// copy-on-write sorted slices inside mvstm Vars, so writes republish a
// bucket as a new version and readers pin a snapshot — the multi-version
// engine's abort-free read path does the isolation work.
const mvstmBackendBuckets = 256

// mvstmBackend serves from mvstm Vars. mvstm ships no container types,
// so the backend builds its own: shards × mvstmBackendBuckets buckets,
// each a sorted []KV behind one Var, indexed by the key hash modulo the
// bucket count — which puts bucket g in shard g mod shards, the shard
// ShardOfKey names. A request is one transaction over the buckets its
// keys hash to; a scan reads every bucket in one snapshot.
type mvstmBackend struct {
	shards  int
	buckets []*mvstm.Var[[]KV]
}

// NewMVSTMBackend returns a one-shard backend over fresh mvstm version
// chains.
func NewMVSTMBackend() Backend { return newMVSTMBackend(1, false) }

// newMVSTMBackend builds n shards' buckets. With label set, each bucket
// Var is labeled shard<i>.bucket<j> in the hot-Var registry — buckets
// are this backend's contention unit (copy-on-write slices), so hot-key
// reports name the bucket, not an individual key.
func newMVSTMBackend(n int, label bool) *mvstmBackend {
	b := &mvstmBackend{shards: n, buckets: make([]*mvstm.Var[[]KV], n*mvstmBackendBuckets)}
	for g := range b.buckets {
		b.buckets[g] = mvstm.NewVar[[]KV](nil)
		if label {
			b.buckets[g].Label(fmt.Sprintf("shard%d.bucket%d", g%n, g/n))
		}
	}
	return b
}

func (b *mvstmBackend) bucketFor(key string) *mvstm.Var[[]KV] {
	return b.buckets[fnv32(key)%uint32(len(b.buckets))]
}

// search locates key in a sorted bucket slice.
func search(kvs []KV, key string) (int, bool) {
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	return i, i < len(kvs) && kvs[i].Key == key
}

func lookup(kvs []KV, key string) (string, bool) {
	if i, ok := search(kvs, key); ok {
		return kvs[i].Value, true
	}
	return "", false
}

func (b *mvstmBackend) Get(key string) (v string, ok bool, err error) {
	bk := b.bucketFor(key)
	err = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		v, ok = lookup(bk.Get(tx), key)
		return nil
	})
	return v, ok, err
}

// Scan clips every bucket of one snapshot to [from, to) and at most
// limit entries — sub-slices of the immutable bucket versions, nothing
// copied — and merges the clipped runs.
func (b *mvstmBackend) Scan(from, to string, limit int) ([]KV, error) {
	runs := make([][]KV, 0, len(b.buckets))
	err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		runs = runs[:0]
		for _, bk := range b.buckets {
			run := bk.Get(tx)
			lo, _ := search(run, from)
			if run = run[lo:]; to != "" {
				hi, _ := search(run, to)
				run = run[:hi]
			}
			if limit > 0 && len(run) > limit {
				run = run[:limit]
			}
			runs = append(runs, run)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeRuns(runs, limit), nil
}

func (b *mvstmBackend) Apply(ops []Op) ([]OpResult, error) {
	res := make([]OpResult, len(ops))
	err := mvstm.Atomically(func(tx *mvstm.Tx) error {
		applyOps(ops, res,
			func(k string) (string, bool) { return lookup(b.bucketFor(k).Get(tx), k) },
			func(k, v string) {
				bk := b.bucketFor(k)
				kvs := bk.Get(tx)
				i, ok := search(kvs, k)
				next := append(make([]KV, 0, len(kvs)+1), kvs[:i]...)
				next = append(next, KV{Key: k, Value: v})
				if ok {
					i++ // replaces the entry it found
				}
				bk.Set(tx, append(next, kvs[i:]...))
			},
			func(k string) bool {
				bk := b.bucketFor(k)
				kvs := bk.Get(tx)
				i, ok := search(kvs, k)
				if !ok {
					return false
				}
				next := append(make([]KV, 0, len(kvs)-1), kvs[:i]...)
				bk.Set(tx, append(next, kvs[i+1:]...))
				return true
			},
		)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (b *mvstmBackend) shardLens() ([]int, error) {
	lens := make([]int, b.shards)
	err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		clear(lens)
		for g, bk := range b.buckets {
			lens[g%b.shards] += len(bk.Get(tx))
		}
		return nil
	})
	return lens, err
}

func (b *mvstmBackend) Len() (int, error) { return sumLens(b.shardLens()) }

func (b *mvstmBackend) Stats() Stats {
	st := commonStats(enginekit.ByName("mvstm"))
	st.ClockBlockClaims = mvstm.ReadStats().ClockBlockClaims
	return st
}
