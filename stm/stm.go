// Package stm is a native (sync/atomic-based) software transactional memory
// for Go programs: the adoptable counterpart of the instrumented algorithms
// in internal/tm. It implements the TL2 protocol — a global version clock,
// per-variable versioned locks, invisible reads, lazy write buffering and
// commit-time locking — the same algorithm measured as the "tl2" series in
// the experiments, so its costs are exactly the ones the paper's Theorem 3
// trades against: O(1) steps per read, at the price of weak DAP (a global
// clock word shared by all update transactions).
//
// # Versioned lock word
//
// Each Var carries a single versioned write-lock word (one atomic.Uint64,
// the encoding shared with internal/tm/lockword): bit 63 is the lock flag,
// bits 0..62 hold the version of the last committed write. A transactional
// read is one load of the word (must be unlocked and no newer than the
// transaction's read version), one load of the value snapshot, and one
// re-load of the word to certify the pair — no separate lock flag, no
// version chased through the value pointer. Commit CASes the lock bit into
// the word (preserving the version), publishes the new snapshots, and
// releases each word with a single store of the new version with the lock
// bit clear, so lock release and version publication are one atomic write.
//
// The hot path is allocation-free in steady state: transaction descriptors
// are pooled and their read/write sets are recycled across attempts and
// calls, so a read-only transaction performs zero heap allocations, and a
// write costs exactly one: the typed value snapshot Set allocates is the
// one commit publishes (see box). A container's link write costs none: the
// node pointer it publishes is the snapshot (see ref).
//
// # Read-only fast path
//
// AtomicallyRO runs a transaction that is read-only by construction on
// TL2's zero-validation mode: reads are certified against the read
// timestamp but never logged, and commit is a no-op — no read set, no
// locking, no validation, so the transaction costs exactly its reads.
// Atomically also promotes a descriptor to the same fast path when a
// retried attempt aborted without buffering a write (and demotes it again
// if the guess was wrong). The trade is a weaker extension rule: with no
// read set to revalidate, a stale read aborts the attempt unless it is the
// first read (see readRO and DESIGN.md's opacity argument).
//
// # Clock strategies and timestamp extension
//
// How commits advance the global clock is selectable (SetClockStrategy):
// GV1 is TL2's unconditional fetch-and-increment, GV4 (the default) lets a
// losing increment adopt the winner's tick instead of retrying, and GV6
// samples increments so most commits leave the clock untouched. A read
// that observes a version newer than the transaction's read timestamp does
// not abort outright: it revalidates the read set and extends the
// timestamp to the current clock (timestamp extension), so only genuinely
// invalidated reads — real conflicts — abort. See DESIGN.md for the
// soundness arguments and ReadStats for the commit/abort/extension
// counters. Both knobs are engine-wide and meant to be set once, before
// concurrent use; GV6 requires extension, and the engine panics rather
// than accept the combination that would lose sequential progress (see
// SetClockStrategy).
//
// # Containers
//
// Transactional data structures compose with any other transactional
// state: Map (hash map, striped size counter), OrderedMap (skiplist with
// ordered Range scans — the long-read-set workload), and Queue (bounded
// blocking FIFO via Retry). Each also exposes non-transactional Snapshot*
// fast paths that never abort or conflict with writers.
//
// Usage:
//
//	acct := stm.NewVar(100)
//	err := stm.Atomically(func(tx *stm.Tx) error {
//	    v := acct.Get(tx)
//	    acct.Set(tx, v-10)
//	    return nil
//	})
//
// Transactions retry automatically on conflict. Get and Set abort the
// enclosing transaction by panicking with an internal signal that
// Atomically recovers; user code must not recover() across t-operations.
// Values stored in a Var must be treated as immutable once written.
package stm

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/backoff"
	"repro/internal/enginekit"
	"repro/internal/syncpoint"
	"repro/internal/tm/lockword"
)

// clock is the global version clock shared by all Vars (TL2's GV).
var clock atomic.Uint64

// varIDs allocates the total order used to acquire commit locks
// deadlock-free.
var varIDs atomic.Uint64

// box is an immutable value snapshot of a Var, typed so the value sits in
// the box itself rather than behind an interface. The version lives in the
// Var's lock word, not here, so a read needs no pointer chase to find it.
//
// A box is the one allocation a transactional write costs: Set allocates
// it, the write set carries the pointer, and commit publishes that same
// pointer. Two consequences: a second Set of one Var in one transaction
// allocates a second box (the first becomes garbage), and so do the boxes
// of an attempt that aborts.
type box[T any] struct {
	val T
}

// varBase is the type-erased interface Tx uses to manage heterogeneous
// variables (Var, ref) in one transaction. casWord exists for TicToc's rts
// advances — the one place a reader mutates a lock word it does not hold.
//
// Value snapshots cross this interface as boxRef: the variable's snapshot
// pointer held in an interface. A pointer is stored in the interface word
// directly, so neither direction allocates and the descriptor never sees
// T. boxValue is the any view of a snapshot's value, for the trace hook
// only.
type varBase interface {
	id() uint64
	lockWord() uint64
	casWord(old, new uint64) bool
	tryLock() (prev uint64, ok bool)
	unlock(ver uint64)
	loadBox() boxRef
	storeBox(boxRef)
	boxValue(boxRef) any
}

// boxRef is a Var[T]'s *box[T], or a ref[N]'s *N itself.
type boxRef any

// varHead is what every variable kind shares and all the protocol touches
// besides the snapshot: the id that orders commit locks, and the lock word.
type varHead struct {
	vid uint64
	lw  atomic.Uint64 // versioned lock word (see package comment)
}

func (h *varHead) id() uint64       { return h.vid }
func (h *varHead) lockWord() uint64 { return h.lw.Load() }

// casWord CASes the raw lock word (TicToc rts advance).
func (h *varHead) casWord(old, new uint64) bool { return h.lw.CompareAndSwap(old, new) }

// tryLock sets the lock bit, preserving the version, and returns the
// pre-lock version so a failed commit can restore the word exactly.
func (h *varHead) tryLock() (uint64, bool) {
	w := h.lw.Load()
	if lockword.Locked(w) {
		return 0, false
	}
	if !h.lw.CompareAndSwap(w, lockword.Lock(w)) {
		return 0, false
	}
	return lockword.Version(w), true
}

// unlock releases the word, publishing ver (the old version after a failed
// commit, the new write version after a successful one) in the same store.
func (h *varHead) unlock(ver uint64) { h.lw.Store(lockword.Unlocked(ver)) }

// Var is a transactional variable holding a value of type T.
// The zero Var is not ready for use; create Vars with NewVar.
type Var[T any] struct {
	varHead
	state atomic.Pointer[box[T]]
}

// NewVar creates a transactional variable with the given initial value.
func NewVar[T any](initial T) *Var[T] {
	v := new(Var[T])
	v.init(initial)
	return v
}

// init readies a Var in place, for containers that embed one by value.
func (v *Var[T]) init(initial T) {
	v.vid = varIDs.Add(1)
	v.state.Store(&box[T]{val: initial})
}

// current returns the published snapshot.
func (v *Var[T]) current() *box[T] {
	b := v.state.Load()
	if b == nil {
		panic("stm: Var used before NewVar (the zero Var is not initialized)")
	}
	return b
}

func (v *Var[T]) loadBox() boxRef       { return v.current() }
func (v *Var[T]) storeBox(b boxRef)     { v.state.Store(b.(*box[T])) }
func (v *Var[T]) boxValue(b boxRef) any { return b.(*box[T]).val }

// ref is the variable kind containers use for links: a transactional
// pointer to an immutable node. The published *N is itself the snapshot —
// already the immutable pointer a box exists to provide — so a link has no
// box, Set allocates nothing, and a hop is two dependent loads (ref, node).
// Refs live inline in their container (a tower is one []ref), readied in
// place by init; to the protocol a ref is a varBase like any Var.
type ref[N any] struct {
	varHead
	p atomic.Pointer[N]
}

func (r *ref[N]) init(n *N) {
	r.vid = varIDs.Add(1)
	r.p.Store(n)
}

func (r *ref[N]) loadBox() boxRef   { return r.p.Load() }
func (r *ref[N]) storeBox(b boxRef) { r.p.Store(b.(*N)) }
func (r *ref[N]) Get(tx *Tx) *N     { return tx.read(r).(*N) }
func (r *ref[N]) Set(tx *Tx, n *N)  { tx.write(r, n) }
func (r *ref[N]) Load() *N          { return r.p.Load() }

// boxValue traces a link by pointer identity (nil is 0, the oracle's initial value).
func (r *ref[N]) boxValue(b boxRef) any { return uint64(uintptr(unsafe.Pointer(b.(*N)))) }

// Get reads the variable inside a transaction. On conflict it aborts the
// transaction (Atomically retries automatically).
func (v *Var[T]) Get(tx *Tx) T {
	return tx.read(v).(*box[T]).val
}

// Set buffers a write to the variable inside a transaction; it becomes
// visible atomically at commit. The snapshot commit will publish is
// allocated here, once (see box).
func (v *Var[T]) Set(tx *Tx, val T) {
	tx.write(v, &box[T]{val: val})
}

// Load reads the variable outside any transaction: a consistent single-
// variable snapshot (equivalent to a one-read transaction).
func (v *Var[T]) Load() T {
	return v.current().val
}

// writeSetMapThreshold is the write-set size beyond which Tx switches from
// a sorted-insert slice (cache-friendly, allocation-free once warm) to an
// auxiliary map index (O(1) read-own-write lookup for large transactions).
const writeSetMapThreshold = 24

// readDedupWindow bounds the backwards scan that suppresses duplicate
// read-set entries: re-reads of a recently read Var (the common loop shape)
// are skipped without paying O(read set) per Get.
const readDedupWindow = 8

// maxExtendAttempts bounds how many times one Get will extend its read
// timestamp before giving up and aborting: under a sustained commit storm
// on the same Var, re-running the transaction (with backoff) beats
// revalidating the read set forever.
const maxExtendAttempts = 3

// Tx is a transaction descriptor. It is valid only inside the function
// passed to Atomically and must not escape or be shared between goroutines.
// Descriptors are pooled: Atomically recycles the read and write sets
// across attempts and across calls, so steady-state transactions do not
// allocate.
type Tx struct {
	rv     uint64
	reads  []readEntry
	writes []writeEntry
	// wmap indexes writes by Var id (unique, so id equality is identity) once
	// the write set outgrows writeSetMapThreshold; below that, writes is kept
	// sorted by Var id and binary-searched. Nil while the slice is authoritative.
	wmap map[uint64]int
	// k is the engine kit's per-descriptor state: the stats stripe, the
	// call's work-budget grant, latency sampling, and the test-only trace
	// record and sync hook (see internal/enginekit). rng drives GV6 commit
	// sampling; it is seeded once per descriptor and survives reset, so
	// pooled reuse keeps sampling phases spread out.
	k   enginekit.Desc
	rng uint64
	// ro marks the zero-validation read-only fast path (see AtomicallyRO):
	// reads are certified against rv but never logged, writes are either a
	// usage error (explicit AtomicallyRO) or demote the descriptor back to
	// the full pipeline (promoted == true). roReads counts the reads the
	// current RO attempt has certified — timestamp extension is sound on
	// the RO path only while it is zero, since there is no read set to
	// revalidate. demoted records that a promotion guess was wrong, so the
	// retry loop does not guess again within the same call.
	ro       bool
	promoted bool
	demoted  bool
	roReads  int
	// blockNext/blockEnd are the descriptor's cached GV7 tick block:
	// blockNext is the next unstamped tick, blockEnd the block's last tick
	// (inclusive); blockEnd == 0 means no block. The block survives reset
	// and pool recycling — that persistence is the amortization — and is
	// drained back to the allocator when the descriptor is released while
	// GV7 is no longer the strategy (see drainBlock).
	blockNext uint64
	blockEnd  uint64
	// tt caches "the TicToc pipeline is selected" for the duration of one
	// Atomically call; ttHi is the upper end of the TicToc validity-
	// interval intersection (rv doubles as the lower end / floor), and
	// ttFloor seeds a retry's floor after an RO-path interval abort. See
	// tictoc.go.
	tt      bool
	ttHi    uint64
	ttFloor uint64
}

type readEntry struct {
	v   varBase
	ver uint64
}

type writeEntry struct {
	v    varBase
	box  boxRef // the snapshot Set allocated; commit publishes it as is
	prev uint64 // pre-lock version, recorded while the commit holds the lock
}

var txPool = sync.Pool{New: func() any {
	tx := &Tx{k: kit.NewDesc()}
	tx.rng = splitmix64(uint64(tx.k.Shard()))
	return tx
}}

// reset clears the read and write sets in place, keeping their backing
// arrays, and zeroes the dropped entries so a pooled Tx pins no user data.
func (tx *Tx) reset() {
	clear(tx.reads)
	tx.reads = tx.reads[:0]
	clear(tx.writes)
	tx.writes = tx.writes[:0]
	tx.wmap = nil // the slice is authoritative again below the threshold
	tx.roReads = 0
}

// release returns the descriptor to the pool with its backing arrays,
// whatever their size. The garbage collector empties a sync.Pool, so an
// idle descriptor's arrays outlive two collections at most; dropping
// them here instead made every wide transaction regrow its read set from
// nil (a 500-insert OrderedMap batch logs ~15k reads).
func (tx *Tx) release() {
	tx.reset()
	if tx.blockEnd != 0 && ClockStrategy(clockStrategy.Load()) != GV7 {
		// The engine moved off GV7 while this descriptor cached a block:
		// return the unused ticks rather than strand them in the pool.
		tx.drainBlock()
	}
	txPool.Put(tx)
}

// searchWrite binary-searches the sorted write set for v, returning the
// insertion position and whether v is present.
func (tx *Tx) searchWrite(v varBase) (int, bool) {
	vid := v.id()
	lo, hi := 0, len(tx.writes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tx.writes[mid].v.id() < vid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tx.writes) && tx.writes[lo].v == v
}

// findWrite locates v in the write set (read-own-write lookup).
func (tx *Tx) findWrite(v varBase) (int, bool) {
	if len(tx.writes) == 0 {
		return 0, false
	}
	if tx.wmap != nil {
		i, ok := tx.wmap[v.id()]
		return i, ok
	}
	return tx.searchWrite(v)
}

// read returns the snapshot v's transactional read observes: the
// transaction's own buffered write, or the certified published one.
func (tx *Tx) read(v varBase) boxRef {
	if tx.ro {
		if tx.tt {
			return tx.ttReadRO(v)
		}
		return tx.readRO(v)
	}
	if tx.tt {
		return tx.ttRead(v)
	}
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step)
	}
	if i, ok := tx.findWrite(v); ok {
		if tx.k.Tracing() {
			tx.k.TraceRead(v, v.boxValue(tx.writes[i].box))
		}
		return tx.writes[i].box
	}
	for attempt := 0; ; attempt++ {
		w := v.lockWord()
		if !lockword.Locked(w) && lockword.Version(w) <= tx.rv {
			b := v.loadBox()
			if v.lockWord() != w {
				// A commit raced between the word load and the value load;
				// re-read (the new word is handled like any other state).
				if attempt >= maxExtendAttempts {
					tx.abortConflict(enginekit.ReadCertify, v)
				}
				continue
			}
			if tx.k.Tracing() {
				tx.k.TraceRead(v, v.boxValue(b))
			}
			tx.k.SyncAt(syncpoint.PostReadCertify)
			// Skip duplicate read-set entries for recently read Vars.
			// Soundness: a re-read of an already-recorded Var either sees
			// the recorded version (≤ rv by the check above, and extension
			// never lowers rv) or a newer one, which extension admits only
			// after revalidating the recorded entry — so the recorded entry
			// stays accurate.
			for i, n := len(tx.reads)-1, len(tx.reads)-readDedupWindow; i >= 0 && i >= n; i-- {
				if tx.reads[i].v == v {
					return b
				}
			}
			if tx.k.Metered() {
				tx.k.Charge(tx.k.Costs.Read)
			}
			tx.reads = append(tx.reads, readEntry{v: v, ver: lockword.Version(w)})
			return b
		}
		if lockword.Locked(w) {
			tx.abortConflict(enginekit.LockBusy, v) // mid-commit elsewhere; extension cannot see past a lock
		}
		if attempt >= maxExtendAttempts {
			tx.abortConflict(enginekit.ReadCertify, v)
		}
		// The Var committed past our read version — the stale-clock case
		// that plain TL2 aborts on. If no read has actually been
		// invalidated, extending the read timestamp is sufficient: help the
		// clock cover the version first (GV6 lets versions run ahead of the
		// clock), then revalidate and advance rv.
		helpClock(lockword.Version(w))
		if !tx.extend() {
			tx.abortConflict(enginekit.Extension, v)
		}
	}
}

// readRO is the zero-validation read of the read-only fast path: one load
// of the lock word (must be unlocked, version ≤ rv), one load of the value
// snapshot, one re-load of the word to certify the pair — and nothing else.
// No read-set entry is recorded, so there is no duplicate-suppression scan,
// no append, and nothing for commit to validate. The price is a weaker
// extension rule: with no read set to revalidate, extending rv is sound
// only while the attempt has certified no read yet (it is then merely a
// re-begin at the current clock); after the first certified read a stale
// version aborts the attempt, and the retry — whose fresh rv covers the
// version thanks to helpClock below — replays it.
func (tx *Tx) readRO(v varBase) boxRef {
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step + tx.k.Costs.Read)
	}
	for attempt := 0; ; attempt++ {
		w := v.lockWord()
		if !lockword.Locked(w) && lockword.Version(w) <= tx.rv {
			b := v.loadBox()
			if v.lockWord() != w {
				if attempt >= maxExtendAttempts {
					tx.abortConflict(enginekit.ReadCertify, v)
				}
				continue
			}
			tx.roReads++
			if tx.k.Tracing() {
				tx.k.TraceRead(v, v.boxValue(b))
			}
			tx.k.SyncAt(syncpoint.PostReadCertify)
			return b
		}
		if lockword.Locked(w) {
			tx.abortConflict(enginekit.LockBusy, v) // mid-commit elsewhere; the RO path never waits it out
		}
		if attempt >= maxExtendAttempts {
			tx.abortConflict(enginekit.ReadCertify, v)
		}
		// Stale read version. Help the clock cover it first (under GV6
		// versions run ahead of the clock), so that even if this attempt
		// aborts, the retry's fresh rv can cover the version — the RO
		// path's sequential-progress obligation under GV6.
		helpClock(lockword.Version(w))
		if tx.roReads > 0 || !extensionEnabled.Load() {
			tx.abortConflict(enginekit.ReadCertify, v)
		}
		tx.rv = clock.Load()
		tx.stat().extensions.Add(1)
	}
}

// extend attempts a read-timestamp extension: sample the clock, then
// revalidate every read entry at its recorded version (unlocked, version
// unchanged). On success the entire read set is known consistent at the
// sampled instant, so rv advances to it — the transaction behaves exactly
// as if it had started then and re-executed every read. This converts the
// stale-clock abort class (dominant under high commit rates) into an
// O(|read set|) revalidation; a failure means some read was genuinely
// overwritten, which no protocol could survive.
func (tx *Tx) extend() bool {
	if !extensionEnabled.Load() {
		return false
	}
	// The revalidation scan is engine work on the transaction's behalf:
	// one step per read entry. extend runs lock-free, so a hard charge is
	// safe, and a transaction stuck extending forever runs dry.
	tx.k.Charge(tx.k.Costs.Step * uint64(len(tx.reads)))
	newRv := clock.Load()
	for i := range tx.reads {
		r := &tx.reads[i]
		w := r.v.lockWord()
		if lockword.Locked(w) || lockword.Version(w) != r.ver {
			tx.stat().extensionFailures.Add(1)
			return false
		}
	}
	tx.rv = newRv
	tx.stat().extensions.Add(1)
	return true
}

func (tx *Tx) write(v varBase, b boxRef) {
	if tx.ro {
		if !tx.promoted {
			panic("stm: Set inside a read-only transaction (AtomicallyRO cannot write)")
		}
		// The promotion guess was wrong: this descriptor does write. Demote
		// back to the full pipeline for the rest of this call. Reads
		// certified on the RO path were never logged, so if any happened
		// the attempt cannot be validated at commit and must restart; with
		// none, demotion is free and the attempt continues in place.
		tx.ro, tx.promoted, tx.demoted = false, false, true
		if tx.roReads > 0 {
			// Certified-but-unlogged RO reads cannot be validated on the full
			// pipeline; the restart is a read-certification casualty.
			tx.abortConflict(enginekit.ReadCertify, v)
		}
	}
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step)
	}
	if tx.k.Tracing() {
		tx.k.TraceWrite(v, v.boxValue(b))
	}
	i, found := tx.findWrite(v)
	if found {
		tx.writes[i].box = b
		return
	}
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Write)
	}
	if tx.wmap == nil && len(tx.writes) >= writeSetMapThreshold {
		// Promote: index the existing entries; from here on writes append
		// unsorted (the commit re-establishes the lock order with one sort).
		tx.wmap = make(map[uint64]int, 2*writeSetMapThreshold)
		for j := range tx.writes {
			tx.wmap[tx.writes[j].v.id()] = j
		}
	}
	if tx.wmap != nil {
		tx.wmap[v.id()] = len(tx.writes)
		tx.writes = append(tx.writes, writeEntry{v: v, box: b})
		return
	}
	// Sorted insert keeps the slice in Var-id order, so commit locks in the
	// deadlock-free total order with no per-commit sort at all.
	tx.writes = append(tx.writes, writeEntry{})
	copy(tx.writes[i+1:], tx.writes[i:])
	tx.writes[i] = writeEntry{v: v, box: b}
}

// traceInit records the construction-time value of a variable built inside
// tx as tx's write: it becomes reachable only if tx commits, which is all
// the history oracle (initial values are 0) can tell a write by.
func (tx *Tx) traceInit(v varBase) {
	if tx.k.Tracing() {
		tx.k.TraceWrite(v, v.boxValue(v.loadBox()))
	}
}

// OrElse composes two transactional alternatives: it runs f, and if f
// blocks via Retry, rolls back f's writes and runs g instead. If g also
// blocks, the whole transaction waits (on the union of both branches'
// read sets) and re-runs — the composable choice operator of Harris et
// al.'s composable memory transactions.
//
// Only Retry falls through to g: a conflict abort restarts the entire
// enclosing transaction, and an error returned by f is returned
// immediately (with f's writes still buffered, exactly as if f's body had
// been inlined).
func (tx *Tx) OrElse(f, g func(*Tx) error) error {
	return enginekit.OrElse(tx, f, g, tx.saveWrites)
}

// saveWrites captures the write set (values included) and returns the
// function that reinstates it, so OrElse can roll a blocked branch back,
// including overwrites of pre-branch writes.
func (tx *Tx) saveWrites() (restore func()) {
	snap, msnap := slices.Clone(tx.writes), maps.Clone(tx.wmap)
	return func() {
		clear(tx.writes)
		tx.writes = append(tx.writes[:0], snap...)
		tx.wmap = msnap
	}
}

// Retry aborts the transaction and blocks the retry until at least one
// variable read so far changes (the classic STM retry combinator). Calling
// Retry with an empty read set panics, since no write could ever wake the
// transaction. The read-only fast path records no read set to wait on:
// inside AtomicallyRO, Retry panics; a promoted descriptor demotes itself
// and restarts the attempt on the full pipeline, where Retry can block.
func (tx *Tx) Retry() {
	if tx.ro {
		if tx.promoted {
			tx.ro, tx.promoted, tx.demoted = false, false, true
			tx.abortConflict(enginekit.ExplicitRetry, nil)
		}
		panic("stm: Retry inside AtomicallyRO would sleep forever (the read-only fast path records no read set to wait on)")
	}
	if len(tx.reads) == 0 {
		panic("stm: Retry with an empty read set would sleep forever")
	}
	// Taxonomy only: a parked Retry is not counted in Stats.Aborts (the
	// attempt loop waits instead of spinning), but operators still want
	// to see how much of the workload is blocking on state changes.
	tx.k.NoteAbort(enginekit.ExplicitRetry, 0)
	panic(enginekit.WaitSignal{})
}

// ownsLock reports whether v is one of the variables this commit locked
// (the write set is sorted by id when this runs).
func (tx *Tx) ownsLock(v varBase) bool {
	_, ok := tx.searchWrite(v)
	return ok
}

// validateCommit revalidates the read set while the commit holds its write
// locks — the commit-time form of timestamp extension: each entry is
// checked against its *recorded* version, never against the (possibly
// stale) read timestamp, so a commit whose reads are all still intact
// passes no matter how far the clock has moved. Every read entry is
// checked, including variables this commit also writes: our lock was taken
// only at commit, so a foreign commit may have slipped in between our read
// and our lock, and the lock word preserves the version under our own lock
// bit, so the version check covers that window for own-locked variables
// too. One bounded retry absorbs the transient case where a foreign
// committer holds a lock it is about to release with the version unchanged
// (its own commit failed); a version mismatch is a real conflict and fails
// immediately.
// It returns the read-set Var that failed (for contention attribution);
// nil on success.
func (tx *Tx) validateCommit() (varBase, bool) {
	for attempt := 0; ; attempt++ {
		var foreignLocked varBase
		for i := range tx.reads {
			r := &tx.reads[i]
			w := r.v.lockWord()
			if lockword.Version(w) != r.ver {
				return r.v, false
			}
			if lockword.Locked(w) && !tx.ownsLock(r.v) {
				foreignLocked = r.v
				break
			}
		}
		if foreignLocked == nil {
			return nil, true
		}
		if attempt >= 1 {
			return foreignLocked, false
		}
		runtime.Gosched()
	}
}

// commit attempts to make the transaction's writes visible atomically.
func (tx *Tx) commit() bool {
	if tx.tt {
		return tx.ttCommit()
	}
	if len(tx.writes) == 0 {
		return true // invisible reads: read-only transactions commit for free
	}
	// Price the commit-time validation scan before any lock is taken: the
	// charge must not panic (and must not succeed-then-strand) while write
	// locks are held, so exhaustion surfaces as a failed commit and the
	// attempt loop turns the exhausted meter into ErrOutOfBudget.
	if !tx.k.ChargeSoft(tx.k.Costs.Step * uint64(len(tx.reads))) {
		return false
	}
	tx.sortWrites()
	tx.k.SyncAt(syncpoint.PreLock)
	locked := 0
	for i := range tx.writes {
		prev, ok := tx.writes[i].v.tryLock()
		if !ok {
			break
		}
		tx.writes[i].prev = prev
		locked++
	}
	releaseLocked := func(n int) {
		for i := 0; i < n; i++ {
			tx.writes[i].v.unlock(tx.writes[i].prev)
		}
	}
	if locked != len(tx.writes) {
		releaseLocked(locked)
		tx.noteAbort(enginekit.LockBusy, tx.writes[locked].v)
		return false
	}
	tx.k.SyncAt(syncpoint.PostLock)
	tx.k.SyncAt(syncpoint.PreClockStamp)
	wv, quiescent := tx.advanceClock()
	if !quiescent {
		if bad, ok := tx.validateCommit(); !ok {
			releaseLocked(locked)
			tx.noteAbort(enginekit.CommitValidation, bad)
			return false
		}
	}
	tx.k.SyncAt(syncpoint.PrePublish)
	for i := range tx.writes {
		e := &tx.writes[i]
		e.v.storeBox(e.box)
		e.v.unlock(wv) // lock release and version publication in one store
	}
	return true
}

// sortWrites re-establishes the deadlock-free Var-id lock order for large
// write sets that appended unsorted past the map-promotion point. (Small
// write sets are maintained sorted and skip this entirely.) Shared by the
// versioned and TicToc commits.
func (tx *Tx) sortWrites() {
	if tx.wmap == nil {
		return
	}
	slices.SortFunc(tx.writes, func(a, b writeEntry) int {
		switch ai, bi := a.v.id(), b.v.id(); {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		default:
			return 0
		}
	})
	tx.wmap = nil // indices are stale now; the attempt is over either way
}

// beginAttempt samples the attempt's starting timestamp state: the read
// version under the versioned strategies, the validity interval under
// TicToc.
func (tx *Tx) beginAttempt() {
	tx.k.SyncAt(syncpoint.Begin)
	if tx.tt {
		tx.ttBegin()
		return
	}
	tx.rv = clock.Load()
}

// Atomically runs fn inside a transaction, retrying until it commits.
// Returning a non-nil error aborts the transaction (its writes are
// discarded) and returns that error to the caller without retrying.
//
// A retried attempt that aborted without buffering a write is promoted to
// the read-only fast path (see AtomicallyRO): the retry runs with no
// read-set logging and commits with no validation. If the guess turns out
// wrong — the promoted attempt calls Set — the descriptor demotes itself
// back to the full pipeline for the rest of the call (restarting the
// attempt only if it had already certified reads that were never logged).
// Transactions that are read-only by construction should call AtomicallyRO
// directly and skip both the first full-pipeline attempt and the guess.
func Atomically(fn func(tx *Tx) error) error {
	return atomically(nil, fn, false)
}

// AtomicallyCtx is Atomically with a cancellation point: the context is
// checked before every attempt and while blocked in Retry, and a done
// context surfaces as a clean abort — buffered writes discarded, no locks
// held, the pooled descriptor recycled — returning ctx.Err(). An attempt
// already past its check runs to completion, so a transaction that
// commits concurrently with cancellation may still commit; callers that
// need a hard guarantee must check the return value, exactly as with
// context-aware I/O.
func AtomicallyCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomically(ctx, fn, false)
}

// AtomicallyRO runs fn as a read-only transaction, retrying until it
// commits; returning a non-nil error aborts and returns it, as with
// Atomically. The read-only fast path is TL2's zero-validation mode: each
// read is certified against the attempt's read timestamp (one lock-word
// load, one value load, one certifying re-load) and nothing is logged —
// no read set, no commit-time locking, no validation — so an RO
// transaction's cost is exactly its reads, allocation-free in steady
// state. See DESIGN.md for the opacity argument.
//
// fn must not write: Set panics, and Retry panics since there is no
// recorded read set to wait on. Use Atomically for transactions that may
// write or need Retry.
func AtomicallyRO(fn func(tx *Tx) error) error {
	return atomically(nil, fn, true)
}

// AtomicallyROCtx is AtomicallyRO with a cancellation point, with the
// same semantics as AtomicallyCtx: the context is checked before every
// attempt, and a done context returns ctx.Err() after a clean abort.
func AtomicallyROCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomically(ctx, fn, true)
}

// atomically is the one retry loop behind the four entry points; ro
// starts the descriptor on the read-only fast path. A nil ctx (the plain
// entry points) costs one predictable branch per attempt.
func atomically(ctx context.Context, fn func(tx *Tx) error, ro bool) error {
	tx := txPool.Get().(*Tx)
	tx.ro, tx.promoted, tx.demoted = ro, false, false
	tx.tt, tx.ttFloor = ClockStrategy(clockStrategy.Load()) == TicToc, 0
	tx.k.Begin(!ro)
	defer func() {
		if r := recover(); r != nil {
			// A panic escaping fn must not strand the pooled descriptor. No
			// engine locks are held while fn runs (commit never runs user
			// code), so recycling the descriptor is the whole cleanup.
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
		tx.beginAttempt()
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
			return err // user error: abort without retry
		case ctl == enginekit.CtlOK && tx.commit():
			// (On the RO path commit has nothing to do: every read was
			// certified against rv when it was performed, so the attempt is
			// already a consistent snapshot.)
			tx.k.Committed(attempt, tx.ro)
			tx.release()
			return nil
		}
		if tx.k.Failed(ctl) {
			return tx.budgetAbort()
		}
		if !tx.ro && !tx.demoted && len(tx.writes) == 0 && len(tx.reads) > 0 {
			// The aborted attempt looked read-only; guess that the retry is
			// too and run it on the fast path.
			tx.ro, tx.promoted = true, true
		}
		// The re-run is the resource a pathological conflict loop consumes;
		// charge it before backoff so a metered transaction runs dry instead
		// of retrying forever. (The failed attempt is already in aborts.)
		if !tx.k.ChargeSoft(tx.k.Costs.Retry) {
			return tx.budgetAbort()
		}
		backoff.Attempt(attempt)
	}
}

// readsChanged is the predicate a parked Retry waits on: some variable in
// the read set has a version newer than the one read. Each probe is a
// single atomic load of the lock word (no pointer chase through the value
// snapshot).
func (tx *Tx) readsChanged() bool {
	for i := range tx.reads {
		r := &tx.reads[i]
		cur := lockword.Version(r.v.lockWord())
		if tx.tt {
			// A TicToc read entry logs the full (wts,rts) payload, but
			// only a wts change means a new committed value: foreign
			// readers advance rts by CAS without publishing anything,
			// and waking on that would re-run the sleeper for nothing.
			if ttWts(cur) != ttWts(r.ver) {
				return true
			}
		} else if cur != r.ver {
			return true
		}
	}
	return false
}

// Sanity check that Var implements varBase.
var _ varBase = (*Var[int])(nil)

// String implements fmt.Stringer for diagnostics. It certifies the
// value/version pair the same way a transactional read does, so it never
// prints a combination that did not exist. Under TicToc the certify
// compares wts only — the payload's rts half moves under foreign
// readers' advance CASes without the value changing, and insisting on a
// stable full payload would spin on a read-hot Var.
func (v *Var[T]) String() string {
	tt := ClockStrategy(clockStrategy.Load()) == TicToc
	for {
		w := v.lw.Load()
		b := v.current()
		w2 := v.lw.Load()
		if !lockword.Locked(w) && !lockword.Locked(w2) {
			if tt {
				pl := lockword.Version(w)
				if ttWts(lockword.Version(w2)) == ttWts(pl) {
					return fmt.Sprintf("Var(%v@wts%d,rts%d)", b.val, ttWts(pl), ttRts(pl))
				}
			} else if w2 == w {
				return fmt.Sprintf("Var(%v@v%d)", b.val, lockword.Version(w))
			}
		}
		runtime.Gosched()
	}
}
