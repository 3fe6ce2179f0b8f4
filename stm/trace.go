package stm

// Test-only history tracing: the native engine's counterpart of the
// simulator's tm.Record. When enabled, every *attempt* of an Atomically /
// AtomicallyRO call is recorded as one internal/tm.TxnRecord — certified
// reads (including the unlogged reads of the read-only fast path),
// buffered writes, and the commit/abort outcome — so a bounded concurrent
// workload yields an internal/tm.History that the internal/check oracles
// (Opaque, StrictlySerializable) can verify, and cmd/opacheck can consume
// as JSON. This is the mechanism the RO-path and timestamp-extension
// opacity tests are built on.
//
// The hook is wired into the hot paths behind a plain bool (traceOn) plus
// a per-descriptor nil check (tx.trec), both false/nil outside tests; the
// enabling functions are exported only to the package's own test binary
// via export_test.go. Enable/disable must happen with no transactions in
// flight (tests start tracing before spawning workers and stop after
// joining them — the goroutine create/join edges order the plain-bool
// accesses).
//
// Sequencing. StartSeq is drawn after the attempt samples its read
// timestamp, per-operation Seqs at each operation's certify point, and
// EndSeq after the commit published (or the abort unwound). Each seq is
// therefore drawn inside the real-time window of the event it stamps, so
// the total order of seqs is a legal linearization and the real-time
// order the checkers derive (EndSeq < StartSeq) only contains edges that
// truly happened.
//
// Limitations (acceptable for a test oracle): traced values must be int
// or uint64 (tm.Value is uint64, and container internals — slices, nodes
// — have no encoding), and OrElse is unsupported, since a rolled-back
// branch's writes would stay in the trace. Tracing allocates freely; it
// measures correctness, never performance.

import (
	"fmt"
	"sync"

	"repro/internal/tm"
)

// traceOn gates the per-attempt trace hooks; toggled only by the
// test-only startTrace/stopTrace, with no transactions in flight.
var traceOn bool

// traceCur is the active collector (nil when tracing is off).
var traceCur *traceCollector

// traceCollector accumulates one tm.History across all traced
// transactions; a single mutex orders the shared sequence counter and the
// per-record appends (tracing is test-only, contention is irrelevant).
type traceCollector struct {
	mu   sync.Mutex
	seq  int
	objs map[varBase]int
	hist tm.History
}

// traceTxn is the per-attempt trace state hung off Tx.trec.
type traceTxn struct {
	c   *traceCollector
	rec *tm.TxnRecord
}

// startTrace installs a fresh collector; test-only, via export_test.go.
func startTrace() {
	traceCur = &traceCollector{objs: make(map[varBase]int)}
	traceOn = true
}

// stopTrace disables tracing and returns the recorded history; test-only.
func stopTrace() *tm.History {
	traceOn = false
	c := traceCur
	traceCur = nil
	if c == nil {
		return &tm.History{}
	}
	return &c.hist
}

// objID maps a Var to a dense t-object index, assigned on first sight (c.mu held).
func (c *traceCollector) objID(v varBase) int {
	id, ok := c.objs[v]
	if !ok {
		id = len(c.objs)
		c.objs[v] = id
	}
	return id
}

// traceValue narrows a traced value to tm.Value. The trace oracle covers
// plain scalar workloads; anything else is a test-authoring error.
func traceValue(val any) tm.Value {
	switch x := val.(type) {
	case int:
		return tm.Value(x)
	case uint64:
		return x
	default:
		panic(fmt.Sprintf("stm: trace mode supports int and uint64 Var values only, got %T", val))
	}
}

// traceBegin opens a TxnRecord for the current attempt. Called (behind
// traceOn) right after the attempt samples its read timestamp.
func (tx *Tx) traceBegin() {
	c := traceCur
	if c == nil {
		return
	}
	// Under the scheduling harness the Proc column is the harness worker
	// id, not the pooled descriptor's stats stripe: pool hand-out order is
	// nondeterministic, and replaying the same schedule twice must yield
	// byte-identical histories.
	proc := int(tx.shard)
	if tx.sync != nil && syncProc != nil {
		proc = syncProc()
	}
	c.mu.Lock()
	rec := &tm.TxnRecord{ID: len(c.hist.Txns), Proc: proc, StartSeq: c.seq, EndSeq: -1}
	c.seq++
	c.hist.Txns = append(c.hist.Txns, rec)
	c.mu.Unlock()
	tx.trec = &traceTxn{c: c, rec: rec}
}

// traceRead records a certified read (called at the certify point, on both
// the default and the RO path, including read-own-write hits).
func (tx *Tx) traceRead(v varBase, b boxRef) {
	t := tx.trec
	t.c.mu.Lock()
	t.rec.Ops = append(t.rec.Ops, tm.Op{Seq: t.c.seq, Kind: tm.OpRead, Obj: t.c.objID(v), Value: traceValue(v.boxValue(b))})
	t.c.seq++
	t.c.mu.Unlock()
}

// traceWrite records a buffered write at invocation time (lazy buffering:
// the write takes effect only if the attempt commits, which the record's
// final status captures).
func (tx *Tx) traceWrite(v varBase, b boxRef) {
	t := tx.trec
	t.c.mu.Lock()
	t.rec.Ops = append(t.rec.Ops, tm.Op{Seq: t.c.seq, Kind: tm.OpWrite, Obj: t.c.objID(v), Value: traceValue(v.boxValue(b))})
	t.c.seq++
	t.c.mu.Unlock()
}

// traceEnd closes the attempt's record: committed attempts get a tryC
// response, everything else an abort. Called after the commit published
// its writes (or the abort unwound), so EndSeq is inside the commit's
// real-time window.
func (tx *Tx) traceEnd(committed bool) {
	t := tx.trec
	if t == nil {
		return
	}
	tx.trec = nil
	t.c.mu.Lock()
	t.rec.EndSeq = t.c.seq
	if committed {
		t.rec.Status = tm.TxnCommitted
		t.rec.Ops = append(t.rec.Ops, tm.Op{Seq: t.c.seq, Kind: tm.OpTryCommit, Obj: -1})
	} else {
		t.rec.Status = tm.TxnAborted
		t.rec.Ops = append(t.rec.Ops, tm.Op{Seq: t.c.seq, Kind: tm.OpAbort, Obj: -1, Aborted: true})
	}
	t.c.seq++
	t.c.mu.Unlock()
}
