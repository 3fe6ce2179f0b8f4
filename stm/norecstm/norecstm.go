// Package norecstm is a native NOrec software transactional memory — the
// ownership-record-free counterpart of the TL2-based repro/stm package,
// mirroring its API (Var[T], Atomically, Retry). One global sequence lock
// orders all commits; reads are invisible and validated by value (snapshot
// identity) whenever the global sequence moves.
//
// It exists as the native-code half of the paper's ablation story: NOrec
// trades TL2's global *clock* for a global *lock*, removing per-variable
// version metadata entirely. Read-only transactions still scale (invisible
// reads), but writers serialize on a single word, and after every commit
// each live reader revalidates its whole read set — the Θ(m)-per-conflict
// cost that becomes Theorem 3's Ω(m²) under the Lemma-2 adversary. The
// sibling benchmarks compare the two engines on identical workloads.
// AtomicallyRO is the value-validation-free read-only fast path: reads
// certify an unmoved global sequence and log nothing, so a read-only
// transaction pays no revalidation scans at all (a moved sequence simply
// re-begins or retries the attempt).
//
// Vars from this package must not be mixed with repro/stm Vars inside one
// transaction; each engine has its own types, so the compiler enforces
// this.
package norecstm

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/syncpoint"
	"repro/stm/budget"
)

// seq is the global sequence lock: even = quiescent, odd = a writer is
// committing.
//
// There is deliberately no clock-strategy axis here (contrast
// stm.SetClockStrategy and mvstm.SetClockStrategy): GV7-style block
// allocation amortizes fetches of a *counter*, but NOrec's seq word is a
// *lock* — a committer must move it odd to exclude other writers and
// move it even again to release them, and readers certify against the
// exact current value, so every commit must perform its two RMWs on the
// shared word no matter how ticks were allocated. Batching is impossible
// by construction, which is NOrec's trade: no per-variable metadata, in
// exchange for a serialized commit window.
var seq atomic.Uint64

// box is an immutable value snapshot; pointer identity doubles as the
// "value" compared by NOrec's validation (boxes are never mutated).
type box struct{ val any }

type varBase interface {
	loadBox() *box
	storeBox(*box)
	id() uint64
}

// varIDs hands out Var identities for contention profiling. The id is
// inert metadata: NOrec's "no per-variable metadata" claim is about the
// runtime algorithm (no version word read or written on any path), and
// the id is touched only by abort-site telemetry, never by reads,
// writes, validation or commit.
var varIDs atomic.Uint64

// Var is a transactional variable holding a value of type T. Create with
// NewVar.
type Var[T any] struct {
	vid   uint64
	state atomic.Pointer[box]
}

// NewVar creates a transactional variable with the given initial value.
func NewVar[T any](initial T) *Var[T] {
	v := &Var[T]{vid: varIDs.Add(1)}
	v.state.Store(&box{val: initial})
	return v
}

func (v *Var[T]) loadBox() *box {
	b := v.state.Load()
	if b == nil {
		panic("norecstm: Var used before NewVar (the zero Var is not initialized)")
	}
	return b
}
func (v *Var[T]) storeBox(b *box) { v.state.Store(b) }
func (v *Var[T]) id() uint64      { return v.vid }

// Get reads the variable inside a transaction.
func (v *Var[T]) Get(tx *Tx) T { return tx.read(v).(T) }

// Set buffers a write inside a transaction.
func (v *Var[T]) Set(tx *Tx, val T) { tx.write(v, val) }

// Load reads the variable outside any transaction.
func (v *Var[T]) Load() T { return v.state.Load().val.(T) }

type retrySignal struct{}
type waitSignal struct{}

// writeSetMapThreshold is the write-set size beyond which Tx adds a map
// index for read-own-write lookup; below it a linear scan of the slice is
// faster than hashing and allocates nothing.
const writeSetMapThreshold = 24

// Tx is a NOrec transaction descriptor; valid only inside Atomically.
// Descriptors are pooled and their read/write sets recycled across
// attempts and calls, mirroring the TL2 engine: NOrec's point is exactly
// how lean per-transaction metadata can get.
type Tx struct {
	snap   uint64
	reads  []readEntry
	writes []writeEntry
	wmap   map[varBase]int // index into writes; non-nil past the threshold
	shard  uint32          // stats stripe; assigned once, survives reset
	// ro marks the read-only fast path (AtomicallyRO): reads are certified
	// against the sequence snapshot but never logged, so a moved sequence
	// cannot be revalidated by value — the attempt re-begins if it has
	// certified no read yet (roReads == 0) and aborts otherwise. Writes
	// inside an RO transaction panic.
	ro      bool
	roReads int
	// latSeq is the descriptor-local sampling sequence for the commit
	// latency histograms (see SetLatencySampling); it deliberately
	// survives reset so pooled descriptors keep striding through the
	// sample period.
	latSeq uint32
	// metered/budgetLeft/costs are the call's work-budget grant, sampled
	// once per call from the engine policy (see SetBudgetPolicy);
	// budgetExceeded records exhaustion on the non-panicking paths. The
	// grant survives reset: retries spend the same budget.
	metered        bool
	budgetExceeded bool
	budgetLeft     uint64
	costs          budget.Costs
	// trec is the test-only trace record of the current attempt (nil
	// outside tracing tests; see trace.go); sync the test-only scheduling
	// hook of the current call (nil outside harness tests; syncpoint.go).
	trec *traceTxn
	sync func(syncpoint.Point)
}

type readEntry struct {
	v varBase
	b *box
}

type writeEntry struct {
	v   varBase
	val any
}

var txPool = sync.Pool{New: func() any {
	return &Tx{shard: uint32(statSeq.Add(1))}
}}

// reset clears the read and write sets in place, keeping their backing
// arrays, and zeroes dropped entries so a pooled Tx pins no user data.
func (tx *Tx) reset() {
	clear(tx.reads)
	tx.reads = tx.reads[:0]
	clear(tx.writes)
	tx.writes = tx.writes[:0]
	tx.wmap = nil
	tx.roReads = 0
	tx.trec = nil
}

// release returns the descriptor to the pool, backing arrays included:
// the garbage collector empties the pool, so nothing is pinned forever,
// and a wide transaction does not regrow its sets from nil each call.
func (tx *Tx) release() {
	tx.reset()
	txPool.Put(tx)
}

// findWrite locates v in the write set (read-own-write lookup).
func (tx *Tx) findWrite(v varBase) (int, bool) {
	if tx.wmap != nil {
		i, ok := tx.wmap[v]
		return i, ok
	}
	for i := range tx.writes {
		if tx.writes[i].v == v {
			return i, true
		}
	}
	return 0, false
}

func (tx *Tx) begin() {
	tx.syncAt(syncpoint.Begin)
	for {
		s := seq.Load()
		if s&1 == 0 {
			tx.snap = s
			return
		}
		if !tx.syncSpin() {
			runtime.Gosched()
		}
	}
}

// validate re-reads the whole read set by snapshot identity until the
// sequence is stable; it aborts the attempt if any read value changed.
// This is NOrec's native form of timestamp extension: the snapshot moves
// forward to the stable sequence whenever every read value is unchanged,
// and only a genuinely overwritten read aborts. Each completed scan is
// counted so the Θ(m)-per-conflict revalidation cost the paper's Theorem 3
// builds on is observable (ReadStats). reason classifies a failed scan
// for the abort taxonomy — the read path passes abortReadCertify, the
// commit CAS loop abortCommitValidation — and the overwritten entry's
// Var feeds the contention profiler.
func (tx *Tx) validate(reason int) {
	// The revalidation scan is engine work on the transaction's behalf:
	// one step per read entry, charged per completed pass. The charge may
	// panic budgetSignal — safe from the read path, and translated into a
	// failed commit by commit's recover (no lock is held there either).
	tx.charge(tx.costs.Step * uint64(len(tx.reads)))
	for {
		s := seq.Load()
		if s&1 == 1 {
			if !tx.syncSpin() {
				runtime.Gosched()
			}
			continue
		}
		ok := true
		var bad varBase
		for _, r := range tx.reads {
			if r.v.loadBox() != r.b {
				ok = false
				bad = r.v
				break
			}
		}
		if seq.Load() != s {
			continue // a commit raced the scan; redo it
		}
		tx.stat().revalidations.Add(1)
		if !ok {
			tx.abortConflict(reason, bad)
		}
		tx.snap = s
		return
	}
}

func (tx *Tx) read(v varBase) any {
	if tx.ro {
		return tx.readRO(v)
	}
	if tx.metered {
		tx.charge(tx.costs.Step)
	}
	if i, ok := tx.findWrite(v); ok {
		if tx.trec != nil {
			tx.traceRead(v, tx.writes[i].val)
		}
		return tx.writes[i].val
	}
	b := v.loadBox()
	for seq.Load() != tx.snap {
		tx.validate(abortReadCertify)
		b = v.loadBox()
	}
	if tx.trec != nil {
		tx.traceRead(v, b.val)
	}
	tx.syncAt(syncpoint.PostReadCertify)
	if tx.metered {
		tx.charge(tx.costs.Read)
	}
	tx.reads = append(tx.reads, readEntry{v: v, b: b})
	return b.val
}

// readRO is the value-validation-free read of the read-only fast path:
// load the snapshot, certify that the global sequence has not moved since
// the transaction's begin, and record nothing. A moved sequence cannot be
// revalidated (no read set), so the attempt re-begins from the newer
// stable sequence while it has certified no read yet — merely a later
// begin — and aborts otherwise (Atomically's retry replays it against the
// fresh sequence).
func (tx *Tx) readRO(v varBase) any {
	if tx.metered {
		tx.charge(tx.costs.Step + tx.costs.Read)
	}
	for {
		b := v.loadBox()
		s := seq.Load()
		if s == tx.snap {
			tx.roReads++
			if tx.trec != nil {
				tx.traceRead(v, b.val)
			}
			tx.syncAt(syncpoint.PostReadCertify)
			return b.val
		}
		if tx.roReads > 0 {
			// Certified reads exist but there is no read log to
			// revalidate: the snapshot cannot be extended, so the read
			// fails certification outright.
			tx.abortConflict(abortReadCertify, v)
		}
		if s&1 == 1 {
			// A writer is mid-commit; wait for a stable sequence.
			if !tx.syncSpin() {
				runtime.Gosched()
			}
			continue
		}
		tx.snap = s // no reads certified yet: adopt the newer snapshot
	}
}

func (tx *Tx) write(v varBase, val any) {
	if tx.ro {
		panic("norecstm: Set inside a read-only transaction (AtomicallyRO cannot write)")
	}
	if tx.metered {
		tx.charge(tx.costs.Step)
	}
	if tx.trec != nil {
		tx.traceWrite(v, val)
	}
	if i, ok := tx.findWrite(v); ok {
		tx.writes[i].val = val
		return
	}
	if tx.metered {
		tx.charge(tx.costs.Write)
	}
	if tx.wmap == nil && len(tx.writes) >= writeSetMapThreshold {
		tx.wmap = make(map[varBase]int, 2*writeSetMapThreshold)
		for j := range tx.writes {
			tx.wmap[tx.writes[j].v] = j
		}
	}
	if tx.wmap != nil {
		tx.wmap[v] = len(tx.writes)
	}
	tx.writes = append(tx.writes, writeEntry{v: v, val: val})
}

// Retry blocks the transaction until a variable it read changes. The
// read-only fast path records no read set to wait on, so Retry inside
// AtomicallyRO panics.
func (tx *Tx) Retry() {
	if tx.ro {
		panic("norecstm: Retry inside AtomicallyRO would sleep forever (the read-only fast path records no read set to wait on)")
	}
	if len(tx.reads) == 0 {
		panic("norecstm: Retry with an empty read set would sleep forever")
	}
	// Taxonomy: a parked wait is a user-requested re-run, not a conflict
	// (and not counted in Stats.Aborts).
	tx.stat().reasons[abortExplicitRetry].Add(1)
	panic(waitSignal{})
}

func (tx *Tx) commit() (ok bool) {
	if len(tx.writes) == 0 {
		return true // read-only: the last validation certified the snapshot
	}
	// validate() reports an invalidated read set by panicking the retry
	// signal; translate that into a failed commit so Atomically re-runs.
	// Its budget charge can likewise panic budgetSignal mid-commit (only
	// after a failed CAS, so no lock is held): same translation, and the
	// attempt loop turns the budgetExceeded flag into ErrOutOfBudget.
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case retrySignal, budgetSignal:
				ok = false
				return
			}
			panic(r)
		}
	}()
	tx.syncAt(syncpoint.PreLock)
	for !seq.CompareAndSwap(tx.snap, tx.snap+1) {
		// The sequence moved: revalidate, then retry from the refreshed
		// snapshot.
		tx.validate(abortCommitValidation)
	}
	// The CAS moved seq odd: this commit holds the global sequence lock.
	tx.syncAt(syncpoint.PostLock)
	tx.syncAt(syncpoint.PrePublish)
	for i := range tx.writes {
		tx.writes[i].v.storeBox(&box{val: tx.writes[i].val})
	}
	seq.Store(tx.snap + 2)
	return true
}

// Atomically runs fn inside a transaction, retrying on conflict until it
// commits; a non-nil error aborts without retrying.
func Atomically(fn func(tx *Tx) error) error {
	return atomically(nil, fn)
}

// AtomicallyCtx is Atomically with a cancellation point: the context is
// checked before every attempt and while blocked in Retry, and a done
// context surfaces as a clean abort (buffered writes discarded, pooled
// descriptor recycled) returning ctx.Err(). An attempt already past its
// check runs to completion, so a commit racing the cancellation may still
// land.
func AtomicallyCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomically(ctx, fn)
}

// atomically is the shared retry loop behind Atomically and
// AtomicallyCtx; a nil ctx costs one predictable branch per attempt.
func atomically(ctx context.Context, fn func(tx *Tx) error) error {
	admitted()
	tx := txPool.Get().(*Tx)
	tx.ro = false
	tx.sync = nil
	if syncOn {
		tx.sync = syncHook
	}
	tx.beginBudget()
	var latStart time.Time
	if p := latEvery.Load(); p != 0 {
		tx.latSeq++
		if uint64(tx.latSeq)&(p-1) == 0 {
			latStart = time.Now()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			// A panic escaping fn must not strand the pooled descriptor. No
			// engine lock can be held here: the sequence lock is taken only
			// inside commit, which runs no user code and never panics while
			// holding it.
			tx.release()
			panic(r)
		}
	}()
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				tx.release()
				return err
			}
		}
		tx.reset()
		tx.begin()
		if traceOn {
			tx.traceBegin()
		}
		err, ctl := runAttempt(tx, fn)
		switch ctl {
		case ctlOK:
			if err != nil {
				tx.traceEnd(false)
				tx.release()
				return err
			}
			if tx.commit() {
				tx.stat().commits.Add(1)
				if !latStart.IsZero() {
					commitLatency.Observe(uint64(time.Since(latStart).Microseconds()))
					attemptsPerCommit.Observe(uint64(attempt) + 1)
				}
				tx.traceEnd(true)
				tx.release()
				return nil
			}
			tx.stat().aborts.Add(1)
			tx.traceEnd(false)
			if tx.budgetExceeded {
				return tx.budgetAbort()
			}
		case ctlRetryNow:
			tx.stat().aborts.Add(1)
			tx.traceEnd(false)
		case ctlBudget:
			tx.stat().aborts.Add(1)
			tx.traceEnd(false)
			return tx.budgetAbort()
		case ctlRetryWait:
			tx.traceEnd(false)
			waitForChange(tx, ctx)
			continue // the wait already yielded; retry immediately
		}
		if !tx.chargeSoft(tx.costs.Retry) {
			return tx.budgetAbort()
		}
		backoff.Attempt(attempt)
	}
}

// AtomicallyRO runs fn as a read-only transaction, retrying until it
// commits; a non-nil error aborts without retrying, as with Atomically.
// It is NOrec's value-validation-free fast path: each read certifies only
// that the global sequence has not moved since begin, nothing is logged,
// and commit is a no-op — no read set, no revalidation scans. fn must not
// write (Set panics) and must not call Retry (there is no recorded read
// set to wait on).
func AtomicallyRO(fn func(tx *Tx) error) error {
	return atomicallyRO(nil, fn)
}

// AtomicallyROCtx is AtomicallyRO with a cancellation point, with the
// same semantics as AtomicallyCtx.
func AtomicallyROCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomicallyRO(ctx, fn)
}

// atomicallyRO is the shared retry loop behind AtomicallyRO and
// AtomicallyROCtx.
func atomicallyRO(ctx context.Context, fn func(tx *Tx) error) error {
	tx := txPool.Get().(*Tx)
	tx.ro = true
	tx.sync = nil
	if syncOn {
		tx.sync = syncHook
	}
	tx.beginBudget()
	var latStart time.Time
	if p := latEvery.Load(); p != 0 {
		tx.latSeq++
		if uint64(tx.latSeq)&(p-1) == 0 {
			latStart = time.Now()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			// As in atomically: recycle the descriptor under a user panic.
			tx.release()
			panic(r)
		}
	}()
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				tx.release()
				return err
			}
		}
		tx.reset()
		tx.begin()
		if traceOn {
			tx.traceBegin()
		}
		err, ctl := runAttempt(tx, fn)
		if ctl == ctlOK {
			// Nothing to commit: every read was certified against the
			// unmoved sequence when it was performed.
			if err != nil {
				tx.traceEnd(false)
				tx.release()
				return err
			}
			tx.stat().commits.Add(1)
			tx.stat().roCommits.Add(1)
			if !latStart.IsZero() {
				commitLatency.Observe(uint64(time.Since(latStart).Microseconds()))
				attemptsPerCommit.Observe(uint64(attempt) + 1)
			}
			tx.traceEnd(true)
			tx.release()
			return nil
		}
		// ctlRetryWait is impossible here (Retry panics on the RO path).
		tx.stat().aborts.Add(1)
		tx.traceEnd(false)
		if ctl == ctlBudget {
			return tx.budgetAbort()
		}
		if !tx.chargeSoft(tx.costs.Retry) {
			return tx.budgetAbort()
		}
		backoff.Attempt(attempt)
	}
}

type ctlKind int

const (
	ctlOK ctlKind = iota
	ctlRetryNow
	ctlRetryWait
	ctlBudget
)

func runAttempt(tx *Tx, fn func(tx *Tx) error) (err error, ctl ctlKind) {
	defer func() {
		switch r := recover(); r.(type) {
		case nil:
		case retrySignal:
			ctl = ctlRetryNow
		case waitSignal:
			ctl = ctlRetryWait
		case budgetSignal:
			ctl = ctlBudget
		default:
			panic(r)
		}
	}()
	return fn(tx), ctlOK
}

// waitForChange blocks until a variable in the read set changes by
// snapshot identity, or until ctx (if any) is done — the caller's loop
// turns that into a clean cancellation abort. The ctx poll is sampled
// every few spins so the common wake-by-write path stays a pure
// pointer-compare loop.
func waitForChange(tx *Tx, ctx context.Context) {
	for spins := 0; ; spins++ {
		for _, r := range tx.reads {
			if r.v.loadBox() != r.b {
				return
			}
		}
		if ctx != nil && spins&63 == 0 && ctx.Err() != nil {
			return
		}
		if !tx.syncSpin() {
			runtime.Gosched()
		}
	}
}
