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

	"repro/internal/backoff"
	"repro/internal/enginekit"
	"repro/internal/syncpoint"
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
	// k is the engine kit's per-descriptor state: the stats stripe, the
	// call's work-budget grant, latency sampling, and the test-only trace
	// record and sync hook (see internal/enginekit).
	k enginekit.Desc
	// ro marks the read-only fast path (AtomicallyRO): reads are certified
	// against the sequence snapshot but never logged, so a moved sequence
	// cannot be revalidated by value — the attempt re-begins if it has
	// certified no read yet (roReads == 0) and aborts otherwise. Writes
	// inside an RO transaction panic.
	ro      bool
	roReads int
}

type readEntry struct {
	v varBase
	b *box
}

type writeEntry struct {
	v   varBase
	val any
}

var txPool = sync.Pool{New: func() any { return &Tx{k: kit.NewDesc()} }}

// reset clears the read and write sets in place, keeping their backing
// arrays, and zeroes dropped entries so a pooled Tx pins no user data.
func (tx *Tx) reset() {
	clear(tx.reads)
	tx.reads = tx.reads[:0]
	clear(tx.writes)
	tx.writes = tx.writes[:0]
	tx.wmap = nil
	tx.roReads = 0
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
	tx.k.SyncAt(syncpoint.Begin)
	for {
		s := seq.Load()
		if s&1 == 0 {
			tx.snap = s
			return
		}
		if !tx.k.SyncSpin() {
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
// for the abort taxonomy — the read path passes enginekit.ReadCertify, the
// commit CAS loop enginekit.CommitValidation — and the overwritten entry's
// Var feeds the contention profiler.
func (tx *Tx) validate(reason int) {
	// The revalidation scan is engine work on the transaction's behalf:
	// one step per read entry, charged per completed pass. The charge may
	// panic BudgetSignal — safe from the read path, and translated into a
	// failed commit by commit's recover (no lock is held there either).
	tx.k.Charge(tx.k.Costs.Step * uint64(len(tx.reads)))
	for {
		s := seq.Load()
		if s&1 == 1 {
			if !tx.k.SyncSpin() {
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
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step)
	}
	if i, ok := tx.findWrite(v); ok {
		if tx.k.Tracing() {
			tx.k.TraceRead(v, tx.writes[i].val)
		}
		return tx.writes[i].val
	}
	b := v.loadBox()
	for seq.Load() != tx.snap {
		tx.validate(enginekit.ReadCertify)
		b = v.loadBox()
	}
	if tx.k.Tracing() {
		tx.k.TraceRead(v, b.val)
	}
	tx.k.SyncAt(syncpoint.PostReadCertify)
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Read)
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
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step + tx.k.Costs.Read)
	}
	for {
		b := v.loadBox()
		s := seq.Load()
		if s == tx.snap {
			tx.roReads++
			if tx.k.Tracing() {
				tx.k.TraceRead(v, b.val)
			}
			tx.k.SyncAt(syncpoint.PostReadCertify)
			return b.val
		}
		if tx.roReads > 0 {
			// Certified reads exist but there is no read log to
			// revalidate: the snapshot cannot be extended, so the read
			// fails certification outright.
			tx.abortConflict(enginekit.ReadCertify, v)
		}
		if s&1 == 1 {
			// A writer is mid-commit; wait for a stable sequence.
			if !tx.k.SyncSpin() {
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
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step)
	}
	if tx.k.Tracing() {
		tx.k.TraceWrite(v, val)
	}
	if i, ok := tx.findWrite(v); ok {
		tx.writes[i].val = val
		return
	}
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Write)
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
	tx.k.NoteAbort(enginekit.ExplicitRetry, 0)
	panic(enginekit.WaitSignal{})
}

func (tx *Tx) commit() (ok bool) {
	if len(tx.writes) == 0 {
		return true // read-only: the last validation certified the snapshot
	}
	// validate() reports an invalidated read set by panicking the retry
	// signal; translate that into a failed commit so Atomically re-runs.
	// Its budget charge can likewise panic BudgetSignal mid-commit (only
	// after a failed CAS, so no lock is held): same translation, and the
	// attempt loop turns the exhausted meter into ErrOutOfBudget.
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case enginekit.RetrySignal, enginekit.BudgetSignal:
				ok = false
				return
			}
			panic(r)
		}
	}()
	tx.k.SyncAt(syncpoint.PreLock)
	for !seq.CompareAndSwap(tx.snap, tx.snap+1) {
		// The sequence moved: revalidate, then retry from the refreshed
		// snapshot.
		tx.validate(enginekit.CommitValidation)
	}
	// The CAS moved seq odd: this commit holds the global sequence lock.
	tx.k.SyncAt(syncpoint.PostLock)
	tx.k.SyncAt(syncpoint.PrePublish)
	for i := range tx.writes {
		tx.writes[i].v.storeBox(&box{val: tx.writes[i].val})
	}
	seq.Store(tx.snap + 2)
	return true
}

// Atomically runs fn inside a transaction, retrying on conflict until it
// commits; a non-nil error aborts without retrying.
func Atomically(fn func(tx *Tx) error) error {
	return atomically(nil, fn, false)
}

// AtomicallyCtx is Atomically with a cancellation point: the context is
// checked before every attempt and while blocked in Retry, and a done
// context surfaces as a clean abort (buffered writes discarded, pooled
// descriptor recycled) returning ctx.Err(). An attempt already past its
// check runs to completion, so a commit racing the cancellation may still
// land.
func AtomicallyCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomically(ctx, fn, false)
}

// AtomicallyRO runs fn as a read-only transaction, retrying until it
// commits; a non-nil error aborts without retrying, as with Atomically.
// It is NOrec's value-validation-free fast path: each read certifies only
// that the global sequence has not moved since begin, nothing is logged,
// and commit is a no-op — no read set, no revalidation scans. fn must not
// write (Set panics) and must not call Retry (there is no recorded read
// set to wait on).
func AtomicallyRO(fn func(tx *Tx) error) error {
	return atomically(nil, fn, true)
}

// AtomicallyROCtx is AtomicallyRO with a cancellation point, with the
// same semantics as AtomicallyCtx.
func AtomicallyROCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomically(ctx, fn, true)
}

// atomically is the one retry loop behind the four entry points; ro runs
// the call on the read-only fast path. A nil ctx costs one predictable
// branch per attempt.
func atomically(ctx context.Context, fn func(tx *Tx) error, ro bool) error {
	tx := txPool.Get().(*Tx)
	tx.ro = ro
	tx.k.Begin(!ro)
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
		tx.k.TraceBegin()
		err, ctl := enginekit.RunAttempt(tx, fn)
		switch {
		case ctl == enginekit.CtlRetryWait:
			tx.k.TraceEnd(false)
			tx.k.Park(ctx, tx.readsChanged)
			continue // the wait already yielded; retry immediately
		case ctl == enginekit.CtlOK && err != nil:
			tx.k.TraceEnd(false)
			tx.release()
			return err
		case ctl == enginekit.CtlOK && tx.commit():
			// (On the RO path commit has nothing to do: every read was
			// certified against the unmoved sequence when it was performed.)
			tx.k.Committed(attempt, tx.ro)
			tx.release()
			return nil
		}
		if tx.k.Failed(ctl) || !tx.k.ChargeSoft(tx.k.Costs.Retry) {
			return tx.budgetAbort()
		}
		backoff.Attempt(attempt)
	}
}

// readsChanged is the predicate a parked Retry waits on: a variable in
// the read set changed by snapshot identity.
func (tx *Tx) readsChanged() bool {
	for _, r := range tx.reads {
		if r.v.loadBox() != r.b {
			return true
		}
	}
	return false
}
