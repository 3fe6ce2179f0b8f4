package server

import (
	"repro/internal/enginekit"
	"repro/stm"
)

// stmBackend serves from one stm.OrderedMap per shard. The maps share
// the engine's one TM, so a request is a single transaction over however
// many of them its keys hash to: the TL2 commit pipeline makes a batch
// atomic and opaque, and a scan ranges every map at one read timestamp.
type stmBackend struct {
	shards []*stm.OrderedMap[string]
}

// NewSTMBackend returns a one-shard backend over a fresh stm.OrderedMap.
func NewSTMBackend() Backend { return newSTMBackend(1, false) }

// newSTMBackend builds n shard maps. With label set, every inserted key
// is labeled in the hot-Var registry (keys are hash-partitioned so no
// prefix is needed for uniqueness), making an installed contention
// sketch report the map keys transactions fought over instead of
// anonymous Var ids.
func newSTMBackend(n int, label bool) *stmBackend {
	b := &stmBackend{shards: make([]*stm.OrderedMap[string], n)}
	for i := range b.shards {
		b.shards[i] = stm.NewOrderedMap[string]()
		if label {
			b.shards[i].EnableKeyLabels("")
		}
	}
	return b
}

func (b *stmBackend) shard(key string) *stm.OrderedMap[string] {
	return b.shards[ShardOfKey(key, len(b.shards))]
}

func (b *stmBackend) Get(key string) (v string, ok bool, err error) {
	m := b.shard(key)
	err = stm.AtomicallyRO(func(tx *stm.Tx) error {
		v, ok = m.Get(tx, key)
		return nil
	})
	return v, ok, err
}

// scanRunPresize caps how many entries a shard's run is sized for up
// front; a limit beyond it (or none) grows the run by append.
const scanRunPresize = 256

// Scan ranges every shard's map in one read-only transaction with the
// limit pushed down — no shard contributes more than the whole answer
// holds — and merges the sorted runs.
func (b *stmBackend) Scan(from, to string, limit int) ([]KV, error) {
	runs := make([][]KV, len(b.shards))
	if limit > 0 {
		for i := range runs {
			runs[i] = make([]KV, 0, min(limit, scanRunPresize))
		}
	}
	err := stm.AtomicallyRO(func(tx *stm.Tx) error {
		for i, m := range b.shards {
			run := runs[i][:0] // a re-run attempt starts its runs over
			m.Range(tx, from, to, func(k, v string) bool {
				run = append(run, KV{Key: k, Value: v})
				return len(run) != limit
			})
			runs[i] = run
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeRuns(runs, limit), nil
}

func (b *stmBackend) Apply(ops []Op) ([]OpResult, error) {
	res := make([]OpResult, len(ops))
	err := stm.Atomically(func(tx *stm.Tx) error {
		applyOps(ops, res,
			func(k string) (string, bool) { return b.shard(k).Get(tx, k) },
			func(k, v string) { b.shard(k).Put(tx, k, v) },
			func(k string) bool { return b.shard(k).Delete(tx, k) },
		)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// shardLens reads each map's striped size counter without a transaction:
// a monitoring figure, not a snapshot.
func (b *stmBackend) shardLens() ([]int, error) {
	lens := make([]int, len(b.shards))
	for i, m := range b.shards {
		lens[i] = m.SnapshotLen()
	}
	return lens, nil
}

func (b *stmBackend) Len() (int, error) { return sumLens(b.shardLens()) }

func (b *stmBackend) Stats() Stats {
	st, s := commonStats(enginekit.ByName("stm")), stm.ReadStats()
	st.Extensions = s.Extensions
	st.ClockIncrements = s.ClockIncrements
	st.ClockAdoptions = s.ClockAdoptions
	st.ClockBlockClaims = s.ClockBlockClaims
	st.RTSAdvances = s.RTSAdvances
	return st
}
