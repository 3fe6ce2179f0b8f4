package enginekit

// Test-only history tracing: the native engines' counterpart of the
// simulator's tm.Record. While a collector is installed, every *attempt*
// of an Atomically / AtomicallyRO call is recorded as one
// internal/tm.TxnRecord — certified reads (including the unlogged reads
// of the read-only paths), buffered writes, and the commit/abort outcome
// — so a bounded concurrent workload yields an internal/tm.History that
// the internal/check oracles (Opaque, StrictlySerializable) can verify
// and `tmbench -exp check` can consume as JSON. The opacity,
// GC-truncation and hostile-schedule tests of all three engines are built
// on it.
//
// The engines reach StartTrace/StopTrace only from export_test.go, and
// must call them with no transaction in flight (tests start tracing
// before spawning workers and stop after joining them). Off, the hook
// costs the flag tests at each site and nothing else.
//
// Sequencing. StartSeq is drawn when the engine calls TraceBegin,
// per-operation Seqs at each operation's certify point, and EndSeq after
// the commit published (or the abort unwound). Each seq is therefore
// drawn inside the real-time window of the event it stamps, so the total
// order of seqs is a legal linearization and the real-time order the
// checkers derive (EndSeq < StartSeq) only contains edges that truly
// happened. Where TraceBegin goes relative to the attempt's timestamp
// sample is the engine's call: stm and norecstm certify every read
// against the moving clock or sequence and may draw StartSeq after the
// sample; mvstm never re-certifies a snapshot read and must draw it
// before (see mvstm's pin).
//
// Limitations (acceptable for a test oracle): traced values must be int
// or uint64 (tm.Value is uint64; stm traces an OrderedMap link as its
// node's address, other container internals have no encoding), and OrElse
// is unsupported, since a rolled-back branch's writes would stay in the
// trace. Tracing allocates freely; it measures correctness, never performance.

import (
	"fmt"
	"sync"

	"repro/internal/tm"
)

// traceCollector accumulates one tm.History across all traced
// transactions; a single mutex orders the shared sequence counter and the
// per-record appends (tracing is test-only, contention is irrelevant).
type traceCollector struct {
	mu   sync.Mutex
	seq  int
	objs map[any]int // Var identity → dense t-object index
	hist tm.History
}

// traceTxn is the per-attempt trace state hung off Desc.trec.
type traceTxn struct {
	c   *traceCollector
	rec *tm.TxnRecord
}

// StartTrace installs a fresh collector.
func (k *Kit) StartTrace() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.trace = &traceCollector{objs: make(map[any]int)}
	k.setFlag(flagTrace, true)
}

// StopTrace removes the collector and returns the recorded history.
func (k *Kit) StopTrace() *tm.History {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.setFlag(flagTrace, false)
	c := k.trace
	k.trace = nil
	if c == nil {
		return &tm.History{}
	}
	return &c.hist
}

// Tracing reports whether this call is being traced; the engines test it
// before building a TraceRead/TraceWrite argument.
func (d *Desc) Tracing() bool { return d.flags&flagTrace != 0 }

// TraceBegin opens a TxnRecord for the current attempt (see Sequencing
// above for where an engine may call it).
func (d *Desc) TraceBegin() {
	if d.flags&flagTrace != 0 {
		d.traceBegin()
	}
}

func (d *Desc) traceBegin() {
	c := d.kit.trace
	// Under the scheduling harness the Proc column is the harness worker
	// id, not the pooled descriptor's stripe: pool hand-out order is
	// nondeterministic, and replaying the same schedule twice must yield
	// byte-identical histories.
	proc := int(d.shard)
	if d.flags&flagSync != 0 && d.kit.syncProc != nil {
		proc = d.kit.syncProc()
	}
	c.mu.Lock()
	rec := &tm.TxnRecord{ID: len(c.hist.Txns), Proc: proc, StartSeq: c.seq, EndSeq: -1}
	c.seq++
	c.hist.Txns = append(c.hist.Txns, rec)
	c.mu.Unlock()
	d.trec = &traceTxn{c: c, rec: rec}
}

// TraceRead records a certified read of the Var v (any comparable
// identity; the engines pass the Var pointer) at its certify point — on
// every read path, including read-own-write hits. val is the value read.
func (d *Desc) TraceRead(v, val any) { d.traceOp(tm.OpRead, v, val) }

// TraceWrite records a buffered write at invocation time (lazy
// buffering: the write takes effect only if the attempt commits, which
// the record's final status captures).
func (d *Desc) TraceWrite(v, val any) { d.traceOp(tm.OpWrite, v, val) }

func (d *Desc) traceOp(kind tm.OpKind, v, val any) {
	// The trace oracle covers plain scalar workloads; anything else is a
	// test-authoring error.
	var x tm.Value
	switch val := val.(type) {
	case int:
		x = tm.Value(val)
	case uint64:
		x = val
	default:
		panic(fmt.Sprintf("%s: trace mode supports int and uint64 Var values only, got %T", d.kit.name, val))
	}
	t := d.trec
	t.c.mu.Lock()
	obj, ok := t.c.objs[v]
	if !ok {
		obj = len(t.c.objs)
		t.c.objs[v] = obj
	}
	t.rec.Ops = append(t.rec.Ops, tm.Op{Seq: t.c.seq, Kind: kind, Obj: obj, Value: x})
	t.c.seq++
	t.c.mu.Unlock()
}

// TraceEnd closes the attempt's record, if one is open: a committed
// attempt gets a tryC response, everything else an abort. The engine
// calls it after the commit published its writes (or the abort unwound),
// so EndSeq is inside the commit's real-time window.
func (d *Desc) TraceEnd(committed bool) {
	t := d.trec
	if d.flags&flagTrace == 0 || t == nil {
		return // (a record a user panic left open is stale once tracing stops)
	}
	d.trec = nil
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
