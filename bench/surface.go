package main

// surface.go is the benchmark's measured surface: every symbol of the
// program the benchmark binds to is named in this file and nowhere else.
// A change that renames or re-shapes one of them needs a benchmark issue
// first (see README.md, "Measured surface").

import (
	"net/http"

	"repro/internal/server"
	"repro/stm"
	"repro/stm/mvstm"
)

type (
	Op       = server.Op
	KV       = server.KV
	OpResult = server.OpResult
	Backend  = server.Backend
	Router   = server.Router
)

// numShards is the serving tier's shard count on every serve_* workload.
const numShards = 4

// newTier builds the server the serve_* workloads load.
func newTier() (http.Handler, *Router, error) {
	srv, err := server.New(server.Config{Shards: numShards, Engine: "stm"})
	if err != nil {
		return nil, nil, err
	}
	return srv.Handler(), srv.Router(), nil
}

// newBackends builds the standalone shards the deepest trace depth enters.
func newBackends() []Backend {
	bs := make([]Backend, numShards)
	for i := range bs {
		bs[i] = server.NewSTMBackend()
	}
	return bs
}

func shardOf(key string) int { return server.ShardOfKey(key, numShards) }

// libClient is one closed-loop caller of an embedded TM. Its closures are
// built once, so issuing a transaction allocates nothing in the benchmark.
type libClient interface {
	transfer(from, to int) error
	audit(lo, n int) (int64, error)
}

// libEngine is the slice of a TM package the lib_* workloads bind to.
type libEngine struct {
	layer   string                                      // per-layer metric prefix
	newVars func(n int, initial int64) func() libClient // shared Vars; returns the per-client constructor
}

var stmEngine = libEngine{layer: "stm", newVars: func(n int, initial int64) func() libClient {
	vars := make([]*stm.Var[int64], n)
	for i := range vars {
		vars[i] = stm.NewVar(initial)
	}
	return func() libClient {
		c := &stmClient{vars: vars}
		c.xfer = func(tx *stm.Tx) error {
			a, b := c.vars[c.from], c.vars[c.to]
			a.Set(tx, a.Get(tx)-1)
			b.Set(tx, b.Get(tx)+1)
			return nil
		}
		c.sumFn = func(tx *stm.Tx) error {
			c.sum = 0
			for _, v := range c.vars[c.lo : c.lo+c.n] {
				c.sum += v.Get(tx)
			}
			return nil
		}
		return c
	}
}}

type stmClient struct {
	vars        []*stm.Var[int64]
	from, to    int
	lo, n       int
	sum         int64
	xfer, sumFn func(*stm.Tx) error
}

func (c *stmClient) transfer(from, to int) error {
	c.from, c.to = from, to
	return stm.Atomically(c.xfer)
}

func (c *stmClient) audit(lo, n int) (int64, error) {
	c.lo, c.n = lo, n
	err := stm.AtomicallyRO(c.sumFn)
	return c.sum, err
}

var mvEngine = libEngine{layer: "stm.mvstm", newVars: func(n int, initial int64) func() libClient {
	vars := make([]*mvstm.Var[int64], n)
	for i := range vars {
		vars[i] = mvstm.NewVar(initial)
	}
	return func() libClient {
		c := &mvClient{vars: vars}
		c.xfer = func(tx *mvstm.Tx) error {
			a, b := c.vars[c.from], c.vars[c.to]
			a.Set(tx, a.Get(tx)-1)
			b.Set(tx, b.Get(tx)+1)
			return nil
		}
		c.sumFn = func(tx *mvstm.Tx) error {
			c.sum = 0
			for _, v := range c.vars[c.lo : c.lo+c.n] {
				c.sum += v.Get(tx)
			}
			return nil
		}
		return c
	}
}}

type mvClient struct {
	vars        []*mvstm.Var[int64]
	from, to    int
	lo, n       int
	sum         int64
	xfer, sumFn func(*mvstm.Tx) error
}

func (c *mvClient) transfer(from, to int) error {
	c.from, c.to = from, to
	return mvstm.Atomically(c.xfer)
}

func (c *mvClient) audit(lo, n int) (int64, error) {
	c.lo, c.n = lo, n
	err := mvstm.AtomicallyRO(c.sumFn)
	return c.sum, err
}

// engineCounters is the union of the two engines' ReadStats fields the
// per-layer metrics are derived from. Both engines are process-global, so
// a snapshot needs no handle.
type engineCounters struct {
	stm stm.Stats
	mv  mvstm.Stats
}

func readCounters() engineCounters {
	return engineCounters{stm: stm.ReadStats(), mv: mvstm.ReadStats()}
}

// engineMetrics turns the counter deltas over ops operations into the
// stm.* and stm.mvstm.* per-layer metrics.
func engineMetrics(m map[string]float64, before, after engineCounters, ops float64) {
	s := after.stm.Sub(before.stm)
	per := func(n uint64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	m["stm.commits_per_op"] = per(s.Commits, ops)
	m["stm.aborts_per_op"] = per(s.Aborts, ops)
	m["stm.abort_ratio"] = s.AbortRatio()
	m["stm.ro_commit_share"] = per(s.ROCommits, float64(s.Commits))
	m["stm.extensions_per_op"] = per(s.Extensions, ops)
	m["stm.clock_increments_per_commit"] = per(s.ClockIncrements, float64(s.Commits))
	m["stm.abort.read_certify"] = 1000 * per(s.AbortReasons.ReadCertify, ops)
	m["stm.abort.commit_validation"] = 1000 * per(s.AbortReasons.CommitValidation, ops)
	m["stm.abort.lock_busy"] = 1000 * per(s.AbortReasons.LockBusy, ops)
	m["stm.abort.extension"] = 1000 * per(s.AbortReasons.Extension, ops)

	v := after.mv.Sub(before.mv)
	m["stm.mvstm.commits_per_op"] = per(v.Commits, ops)
	m["stm.mvstm.aborts_per_op"] = per(v.Aborts, ops)
	m["stm.mvstm.abort_ratio"] = v.AbortRatio()
	m["stm.mvstm.walk_steps_per_read"] = v.MeanChainWalk()
	m["stm.mvstm.versions_live"] = float64(after.mv.VersionsAppended) - float64(after.mv.VersionsReclaimed)
	m["stm.mvstm.versions_pooled_share"] = per(v.VersionsPooled, float64(v.VersionsReclaimed))
	m["stm.mvstm.gc_sweeps_per_commit"] = per(v.GCSweeps, float64(v.Commits))
	m["stm.mvstm.chain_hwm"] = float64(v.ChainHWM)
}
