// Package mvstm is a native multi-version software transactional memory:
// the third engine of the repository's triangle (TL2 in repro/stm, NOrec
// in repro/stm/norecstm), and the native counterpart of the simulated
// internal/tm/mvtm. Where the single-version engines buy O(1)-step reads
// with a global clock and still pay certification (and, for long read
// sets, abort/replay under write churn), mvstm spends *space* instead:
// each Var keeps a small chain of committed versions, and a read-only
// transaction reads the snapshot at its start timestamp by walking each
// chain to the newest version no newer than that timestamp. Read-only
// transactions therefore never abort, never log a read set, and never
// revalidate — the paper's Theorem 3 trade-off (time vs. space) made
// concrete in wall-clock terms. The HTAP-shaped workload this engine
// exists for — long analytical scans racing a writer pool — is measured
// as experiment E11 (see DESIGN.md).
//
// # Version chains
//
// Each Var holds an immutable chain snapshot published through one atomic
// pointer: the newest few versions live in an inline array head (no
// pointer chase for the common newest-version read), older ones in an
// overflow slice. A version holds its value inline, typed — one base
// object per retained version, and no boxing on either path: Get returns
// the value straight from the walk, and Set stores it in a pooled chain
// build that commit completes and publishes. Writers commit exactly as in
// the TL2 engine — lock the write set in Var-id order, fetch a write
// version from the GV4 pass-on-failure global clock, validate the read
// set — and then *append* a version instead of overwriting, publishing a
// new chain snapshot before releasing each Var's versioned lock word.
//
// A snapshot read needs no certifying re-load: the transaction pins its
// read timestamp rv once, and any version committed after the pin carries
// a write version strictly greater than rv (the write version is drawn
// from the clock after the committer acquired its locks, and the clock
// reaches it only afterwards — the same invariant the stm engine's
// opacity argument rests on). The only writer a read must wait out is one
// that acquired its locks before the pin and has not yet published — and
// the lock word says which that is: locking embeds the clock value at
// acquisition time, so a reader classifies a held lock with one load
// (embedded clock ≥ rv: the pending version is invisible, proceed;
// below rv: wait, with sleeps that hand the CPU to a preempted holder).
// Everything else is one lock-word load, one chain-pointer load, and a
// walk.
//
// # Epoch-based garbage collection
//
// Unbounded chains would make the space half of the trade infinite, so
// transactions register their read timestamps in a striped epoch table
// (one padded slot per pooled descriptor) and committers truncate each
// written chain below the oldest registered snapshot, keeping at least
// SetRetention's worth of recent versions. Registration publishes a
// joining sentinel *before* sampling the clock; a sweep that observes the
// sentinel skips truncation for that commit (counted in Stats.GCSkips),
// which closes the race where a reader pins a timestamp the sweep did not
// see. A pinned old reader therefore blocks truncation below its floor
// until it finishes — chains grow while it runs and are reclaimed by the
// next commit after it retires — and a snapshot read can never find its
// floor version truncated.
//
// Usage mirrors repro/stm:
//
//	acct := mvstm.NewVar(100)
//	err := mvstm.Atomically(func(tx *mvstm.Tx) error {
//	    acct.Set(tx, acct.Get(tx)-10)
//	    return nil
//	})
//	_ = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
//	    _ = acct.Get(tx) // snapshot read: never aborts, logs, or revalidates
//	    return nil
//	})
//
// Transactions retry automatically on conflict (update transactions
// only — AtomicallyRO runs exactly once). Get and Set abort the enclosing
// transaction by panicking with an internal signal that Atomically
// recovers; user code must not recover() across t-operations. Values
// stored in a Var must be treated as immutable once written.
package mvstm

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/enginekit"
	"repro/internal/mempool"
	"repro/internal/syncpoint"
	"repro/internal/tm/lockword"
)

// clock is the global version clock shared by all Vars (advanced by the
// strategy configured with SetClockStrategy; see clock.go).
var clock atomic.Uint64

// varIDs allocates the total order used to acquire commit locks
// deadlock-free.
var varIDs atomic.Uint64

// chainInline is the number of newest versions kept in the chain's inline
// array head; older versions overflow into a slice. Recent readers — the
// common case — find their version without touching the overflow.
const chainInline = 3

// version is one committed value with its commit timestamp. The value is
// stored inline — a retained version is one base object of
// sizeof(T)+8 bytes, not a header pointing at a boxed value.
type version[T any] struct {
	val T
	ver uint64
}

// chain is an immutable snapshot of a Var's version history: head holds
// the newest n versions (newest-first), tail the older ones oldest-first.
// A chain starts life as a pending build — Set takes it from the pool and
// writes the new value into head[0] — and commit completes it with the
// survivors of the published chain and stamps the write version in; once
// published, no array is written again. A chain owns its tail exclusively
// (builds copy survivors instead of sharing the base's tail slice), so
// chains may be built optimistically outside the Var lock, walked by
// readers without any synchronization — and, once replaced and proven
// quiescent, recycled through the pool without any other live chain
// referencing their storage.
type chain[T any] struct {
	head [chainInline]version[T]
	n    int
	tail []version[T]
}

// chainRef is a Var[T]'s *chain[T] as the type-erased descriptor carries
// it: Tx, writeEntry and retiredChain hold the chains of heterogeneous
// Vars without knowing T and hand them back to the owning Var's methods,
// which alone look inside. Pointer-shaped, so the conversion is free.
type chainRef any

// newChainPool builds the pool of chain[T]: chain nodes and their overflow
// slices recycled through size-classed free lists, keyed by tail capacity
// — the allocation-free half of the steady state. There is one pool per
// instantiated T (mempool.Shared), resolved once in NewVar and reached
// through the Var. A chain may be Put only when provably unreachable:
// immediately for a never-published build, and after the epoch quiescence
// check in drainRetired for a published one.
func newChainPool[T any]() *mempool.ClassPool[chain[T]] {
	return mempool.NewClassPool(
		func(capacity int) *chain[T] { return &chain[T]{tail: make([]version[T], 0, capacity)} },
		func(c *chain[T]) int { return cap(c.tail) },
		(*chain[T]).reset,
	)
}

// reset empties the chain (versions zeroed, tail length 0), which both
// drops the user values pooled memory would otherwise pin and makes a
// use-after-Put read fail loudly — at() on an emptied chain finds no
// version and Get panics — instead of returning stale data.
func (c *chain[T]) reset() {
	clear(c.head[:])
	c.n = 0
	clear(c.tail[:cap(c.tail)])
	c.tail = c.tail[:0]
}

// len returns the number of versions in the chain.
func (c *chain[T]) len() int { return c.n + len(c.tail) }

// at returns the newest version with ver ≤ rv and the number of versions
// examined, or nil if the chain holds no such version (possible only if
// truncation removed a registered reader's floor — an engine bug).
func (c *chain[T]) at(rv uint64) (v *version[T], walked int) {
	for i := 0; i < c.n; i++ {
		walked++
		if c.head[i].ver <= rv {
			return &c.head[i], walked
		}
	}
	for i := len(c.tail) - 1; i >= 0; i-- {
		walked++
		if c.tail[i].ver <= rv {
			return &c.tail[i], walked
		}
	}
	return nil, walked
}

// index returns the i-th version in newest-first logical order.
func (c *chain[T]) index(i int) *version[T] {
	if i < c.n {
		return &c.head[i]
	}
	return &c.tail[len(c.tail)-1-(i-c.n)]
}

// survivors returns how many of c's newest versions a truncating build
// carries over: the kept prefix preserves both the minRV floor (the
// newest version ≤ minRV — some registered reader's snapshot may need it)
// and, counting the version being pushed on top (its timestamp exceeds
// minRV — it exceeds the committer's own registered rv), at least retain
// recent versions.
func (c *chain[T]) survivors(minRV uint64, retain int) int {
	l := c.len()
	for i := 0; i < l; i++ {
		if c.index(i).ver <= minRV {
			return min(l, max(i+1, retain-1))
		}
	}
	// No version ≤ minRV: unreachable while every Var is born at version 0
	// and minRV is monotone, but never truncate on it.
	return l
}

// fill completes the pending build nc, whose head[0] already holds the new
// value, with the newest keep versions of c, every survivor copied into
// storage nc owns exclusively. The copy is O(keep), but keep is capped by
// the GC sweep at gcSlackFactor×retention (plus whatever a pinned old
// reader holds, which grows the chain anyway), so it is a bounded cost
// that buys recyclability — the chain being replaced can be pooled
// without any live chain sharing its arrays.
func (nc *chain[T]) fill(c *chain[T], keep int) {
	total := keep + 1
	nc.n = min(total, chainInline)
	for i := 1; i < nc.n; i++ {
		nc.head[i] = *c.index(i - 1)
	}
	nc.tail = nc.tail[:total-nc.n]
	for i := range nc.tail {
		// The tail is oldest-first: tail position i is logical index
		// total-1-i of the new chain, i.e. survivor total-2-i of c.
		nc.tail[i] = *c.index(total - 2 - i)
	}
}

// varBase is the type-erased interface Tx uses to manage heterogeneous
// Vars in one transaction: identity, the versioned lock word, and the few
// chain operations commit performs blind, on chainRefs only the Var can
// open.
type varBase interface {
	id() uint64
	lockWord() uint64
	tryLock() (prev uint64, ok bool)
	unlock(ver uint64)
	build(tx *Tx, e *writeEntry, st *statShard)
	moved(base chainRef) bool
	publish(nc chainRef, wv uint64)
	recycle(c chainRef)
}

// Var is a transactional variable holding a value of type T and a chain
// of its committed versions. The zero Var is not ready for use; create
// Vars with NewVar.
type Var[T any] struct {
	vid  uint64
	lw   atomic.Uint64 // versioned lock word (bit 63 lock, bits 0..62 newest version)
	ch   atomic.Pointer[chain[T]]
	pool *mempool.ClassPool[chain[T]]
}

// NewVar creates a transactional variable with the given initial value.
// The initial version carries timestamp 0, so it is visible to every
// snapshot (a Var shared with a transaction that pinned its timestamp
// before the Var existed reads the initial value).
func NewVar[T any](initial T) *Var[T] {
	v := &Var[T]{vid: varIDs.Add(1), pool: mempool.Shared(newChainPool[T])}
	c := v.pool.Get(0)
	c.n = 1
	c.head[0].val = initial
	v.ch.Store(c)
	return v
}

func (v *Var[T]) id() uint64       { return v.vid }
func (v *Var[T]) lockWord() uint64 { return v.lw.Load() }

// tryLock sets the lock bit with the *current clock value* in the version
// bits — not the pre-lock version, which is returned for the failed-commit
// restore and for commit validation instead. Embedding the clock lets
// snapshot readers classify a held lock without waiting: the holder's
// write version will exceed the embedded clock (it is drawn from the
// clock after all locks are held), so a reader whose read timestamp is at
// most the embedded value knows the pending version is invisible to it
// and reads the published chain immediately. Only a lock taken before the
// reader pinned — embedded clock below rv — can publish a version the
// snapshot needs, and only that case waits.
func (v *Var[T]) tryLock() (uint64, bool) {
	w := v.lw.Load()
	if lockword.Locked(w) {
		return 0, false
	}
	if !v.lw.CompareAndSwap(w, lockword.Lock(lockword.Unlocked(clock.Load()))) {
		return 0, false
	}
	return lockword.Version(w), true
}

// unlock releases the word, publishing ver (the old version after a failed
// commit, the new write version after a successful one) in the same store.
func (v *Var[T]) unlock(ver uint64) { v.lw.Store(lockword.Unlocked(ver)) }

func (v *Var[T]) loadChain() *chain[T] {
	c := v.ch.Load()
	if c == nil {
		panic("mvstm: Var used before NewVar (the zero Var is not initialized)")
	}
	return c
}

// build completes e's pending chain — the one Set put the new value in —
// from the currently published chain, truncating in the same build once
// the chain has grown to the sweep threshold. The head version's timestamp
// is a placeholder until commit stamps the write version in under the
// Var's lock. Commit calls it again, under the lock, when a foreign commit
// replaced the chain in between: fill then overwrites the first attempt's
// survivors (n and the tail length bound what readers see, so a shorter
// refill needs no clearing). Sweep hysteresis: chains are left to grow to
// gcSlackFactor×retention and then cut back down in the same copy as the
// push, so the survivor copy and the minActiveRV scan amortize over
// ~retention commits instead of taxing every one.
func (v *Var[T]) build(tx *Tx, e *writeEntry, st *statShard) {
	c, nc := v.loadChain(), e.nc.(*chain[T])
	l := c.len()
	keep := l
	if retain := int(retention.Load()); l >= gcSlackFactor*retain {
		if minRV, ok := tx.sweepFloor(st); ok {
			keep = c.survivors(minRV, retain)
		}
	}
	if need := keep + 1 - chainInline; need > cap(nc.tail) {
		// The chain outgrew the capacity class Set sized the build for:
		// move the value into a larger pooled chain.
		big := v.pool.Get(need)
		big.head[0].val = nc.head[0].val
		v.pool.Put(nc)
		nc = big
	}
	nc.fill(c, keep)
	e.base, e.nc, e.n, e.reclaimed = c, nc, int32(keep+1), int32(l-keep)
}

// moved reports whether a commit has replaced the chain build observed.
func (v *Var[T]) moved(base chainRef) bool { return v.ch.Load() != base.(*chain[T]) }

// publish stamps the write version into the completed build and makes it
// the Var's chain; the caller holds the Var's lock and releases it after.
func (v *Var[T]) publish(nc chainRef, wv uint64) {
	c := nc.(*chain[T])
	c.head[0].ver = wv
	v.ch.Store(c)
}

// recycle returns a chain no goroutine can reach any more to the pool.
func (v *Var[T]) recycle(c chainRef) { v.pool.Put(c.(*chain[T])) }

// Get reads the variable inside a transaction: the snapshot value at the
// transaction's read timestamp. Inside Atomically the read is also logged
// for commit-time validation; inside AtomicallyRO it is not logged at all
// and can never abort.
func (v *Var[T]) Get(tx *Tx) T {
	if !tx.ro {
		if i, ok := tx.findWrite(v); ok {
			// Read-own-write: the value sits in the entry's pending build.
			val := tx.writes[i].nc.(*chain[T]).head[0].val
			if tx.k.Tracing() {
				tx.k.TraceRead(v, val)
			}
			return val
		}
	}
	// A held lock is waited out only when it was acquired before this
	// transaction pinned (embedded clock < rv, see tryLock) — that holder
	// may publish a version ≤ rv the snapshot needs. A lock acquired at
	// clock ≥ rv will publish a version > rv, invisible to this snapshot,
	// so the reader proceeds immediately: a writer preempted mid-commit
	// can only stall scans that pinned before it locked, which keeps long
	// scans effectively wait-free against the writer pool in steady state.
	w := v.lw.Load()
	if lockword.Locked(w) && lockword.Version(w) < tx.rv {
		w = tx.awaitPublished(v)
	}
	// Once the lock word is classified, one chain-pointer load suffices —
	// all versions ≤ rv were published before the observed lock state
	// (per-Var commits serialize on the lock), any version committed
	// afterwards exceeds rv, and truncation never removes the registered
	// floor — so there is no certifying re-load and no abort path.
	ver, walked := v.loadChain().at(tx.rv)
	if ver == nil {
		panic("mvstm: snapshot too old (version chain truncated past a pinned read timestamp — this is an engine bug)")
	}
	tx.chargeWalk(walked)
	if tx.k.Tracing() {
		tx.k.TraceRead(v, ver.val)
	}
	// The snapshot lookup is this engine's read-certification analogue:
	// the value is fixed once the chain walk returns, so the harness
	// point sits after it (a writer granted here commits versions the
	// pinned snapshot must — and does — ignore).
	tx.k.SyncAt(syncpoint.PostReadCertify)
	if !tx.ro {
		tx.logRead(v, lockword.Version(w))
	}
	return ver.val
}

// Set buffers a write to the variable inside a transaction; it becomes
// visible atomically at commit as a new version. Set panics inside
// AtomicallyRO.
//
// The value goes straight into the head of a pending chain build taken
// from the pool — the chain commit completes with the survivors and
// publishes — so a write allocates nothing in steady state. The build is
// sized for the chain as published now (the transaction is pinned, so
// that chain cannot be recycled under the peek); build re-sizes it in the
// rare case the chain grew into the next capacity class before commit.
func (v *Var[T]) Set(tx *Tx, val T) {
	tx.beginWrite()
	if tx.k.Tracing() {
		tx.k.TraceWrite(v, val)
	}
	e := tx.write(v)
	nc, _ := e.nc.(*chain[T])
	if nc == nil || e.shared {
		// A shared build is also referenced by an OrElse save point's
		// snapshot (see saveWrites), which must keep the pre-branch value:
		// overwrite a fresh one instead.
		nc = v.pool.Get(v.loadChain().len() + 1 - chainInline)
		e.nc, e.shared = nc, false
	}
	nc.head[0].val = val
}

// loadSlotBox wraps an epoch slot handed to non-transactional readers
// (Load, String). Those readers have no descriptor, but they still
// dereference a chain, so they must be visible to drainRetired — an
// unregistered dereference could race a recycler rewriting the chain's
// fields. The box exists to carry the AddCleanup that returns the slot
// when the pool drops the box.
type loadSlotBox struct{ s *epochSlot }

var loadSlotPool = sync.Pool{New: func() any {
	b := &loadSlotBox{s: newEpochSlot()}
	runtime.AddCleanup(b, freeEpochSlot, b.s)
	return b
}}

// pinPeek registers a momentary snapshot at the current clock so chains
// loaded until unpinPeek cannot be recycled mid-read. Same protocol as
// Tx.pin: the joining sentinel is published before the clock sample so a
// concurrent drain either skips (saw the sentinel) or sampled its floor
// before this reader's rv existed — in which case rv ≥ that floor's
// clock and the retire-time argument above applies.
func pinPeek() *loadSlotBox {
	b := loadSlotPool.Get().(*loadSlotBox)
	b.s.ts.Store(slotJoining)
	rv := clock.Load()
	b.s.ts.Store(rv + slotBias)
	return b
}

func unpinPeek(b *loadSlotBox) {
	b.s.ts.Store(slotInactive)
	loadSlotPool.Put(b)
}

// Load reads the variable outside any transaction: the newest published
// version. The momentary epoch registration keeps the chain out of the
// recycler while its newest version is read; no lock is taken and the
// read never waits.
func (v *Var[T]) Load() T {
	b := pinPeek()
	// Deferred so a panic (e.g. Load on a zero Var) cannot leak the
	// registration and pin the GC floor forever.
	defer unpinPeek(b)
	return v.loadChain().head[0].val
}

// writeSetMapThreshold is the write-set size beyond which Tx switches from
// a sorted-insert slice to an auxiliary map index, as in the stm engine.
const writeSetMapThreshold = 24

// readDedupWindow bounds the backwards scan that suppresses duplicate
// read-set entries for recently re-read Vars.
const readDedupWindow = 8

// Tx is a transaction descriptor. It is valid only inside the function
// passed to Atomically/AtomicallyRO and must not escape or be shared
// between goroutines. Descriptors are pooled: read and write sets are
// recycled across attempts and calls, and each descriptor owns one padded
// epoch slot in the GC registry for its lifetime.
type Tx struct {
	rv     uint64
	reads  []readEntry
	writes []writeEntry
	// wmap indexes writes by Var past writeSetMapThreshold entries; below
	// that, writes is kept sorted by Var id and binary-searched.
	wmap map[varBase]int
	// k is the engine kit's per-descriptor state: the stats stripe, the
	// call's work-budget grant, latency sampling, and the test-only trace
	// record and sync hook (see internal/enginekit).
	k enginekit.Desc
	// slot is the descriptor's registration in the epoch table; pin/unpin
	// publish and clear the active read timestamp committers sweep against.
	slot *epochSlot
	// ro marks the snapshot (read-only) path: reads are served from the
	// chains at rv with no logging, Set and Retry are usage errors, and
	// the transaction can never abort.
	ro bool
	// pendingReads/pendingWalk accumulate snapshot-read stats locally and
	// are flushed to the stripe once per call (the snapshot path must not
	// pay an atomic add per read).
	pendingReads uint64
	pendingWalk  uint64
	// minRV/minState cache the sweep floor for one commit's chain builds:
	// 0 not computed, 1 usable, 2 sweep skipped (a joiner was observed).
	minRV    uint64
	minState int
	// blockNext/blockEnd are the descriptor's GV7 tick block (see
	// clock.go): ticks blockNext..blockEnd are claimed but unstamped.
	// Blocks persist across pool cycles while GV7 is active.
	blockNext uint64
	blockEnd  uint64
	// retired[retiredHead:] holds chains this descriptor unlinked from
	// their Vars, awaiting epoch quiescence before recycling (see
	// drainRetired); the entries before retiredHead are drained and
	// zeroed, and are compacted away once they fill half the slice.
	// Timestamps are non-decreasing: appended in commit order under a
	// monotone clock. retiredVersions is the live entries' Σ n, the
	// figure retireBudget bounds.
	retired         []retiredChain
	retiredHead     int
	retiredVersions int
}

// retiredChain is a chain unlinked from its Var, awaiting quiescence
// before recycling. ts is a published-clock sample taken after the
// unlinking store: any reader that could still hold the old chain
// pinned before the swap, and a pin's rv is the clock at pin time
// ≤ the clock after the swap = ts. Once every active registration
// exceeds ts, no reader can reach the chain and it may be pooled.
type retiredChain struct {
	v  varBase // the owner, which alone can open c and knows its pool
	c  chainRef
	ts uint64
	n  int // versions the chain holds
}

// retireDrainMin is the live retired-list length below which finish does
// not bother scanning the epoch table (the scan amortizes over ≥ this
// many recycles).
//
// retireBudget bounds the versions (Σ chain length) a descriptor's
// retired list may hold. A pinned reader blocks quiescence, and a reader
// descheduled mid-pin blocks it for a scheduler quantum, so the list
// must ride that out. The figure is versions, not chains, because the
// cost of a stall is quadratic in chains: behind a frozen floor every
// commit to a hot Var retires a copy one version longer than the last.
// In lib_mv (the bench/ workload, 2 CPUs) the deepest stall measured
// retired 8 k chains — about 10 ms of the running client's commits —
// holding 0.64 M versions, since the hot pair's copies grew to ~600;
// 2^20 covers that with margin. Past the budget the oldest entries are
// dropped to the garbage collector (counted in Stats.VersionsDropped) —
// always safe, since the GC itself waits for the last reference.
// Worst-case bytes per descriptor: a chain of L versions is
// sizeof(chain[T]) plus a tail of < 2L version[T] (capacity classes
// round up), and chains ≤ versions, so ≤ 2^20 × (sizeof(chain[T]) +
// 2·sizeof(version[T])) — 112 MiB for a Var[int64] (80 + 2·16 B) if
// every chain held one version; the deepest lib_mv stall held ~21 MB.
const (
	retireDrainMin = 16
	retireBudget   = 1 << 20
)

type readEntry struct {
	v   varBase
	ver uint64 // newest committed version at read time (readsChanged polls it)
}

type writeEntry struct {
	v    varBase
	prev uint64 // pre-lock version, recorded while the commit holds the lock
	// nc is the write's pending chain build: Set takes it from the pool and
	// puts the value in its head, and commit completes it from base — the
	// chain observed before locking — and stamps the write version in
	// under the lock. Building outside the lock window keeps the window to
	// a handful of atomics, so a writer preempted mid-commit almost never
	// strands a pre-pin reader. nc is nil again once published.
	base chainRef
	nc   chainRef
	// n is the completed build's length, reclaimed the number of versions
	// its truncation dropped.
	n, reclaimed int32
	// shared marks nc as also referenced by an OrElse save point, so Set
	// must replace the build instead of overwriting its value.
	shared bool
}

var txPool = sync.Pool{New: func() any {
	tx := &Tx{k: kit.NewDesc(), slot: newEpochSlot()}
	// sync.Pool drops descriptors on GC cycles; the cleanup recycles the
	// dropped descriptor's epoch slot so the slot registry stays bounded
	// by peak descriptor concurrency, not by pool-eviction history.
	runtime.AddCleanup(tx, freeEpochSlot, tx.slot)
	return tx
}}

// reset clears the read and write sets in place, keeping their backing
// arrays, and zeroes the dropped entries so a pooled Tx pins no user data.
// Chain builds the attempt took and did not publish go back to the pool.
func (tx *Tx) reset() {
	tx.recycleBuilds()
	clear(tx.reads)
	tx.reads = tx.reads[:0]
	clear(tx.writes)
	tx.writes = tx.writes[:0]
	tx.wmap = nil
}

// pin registers the attempt's read timestamp in the epoch table and
// samples it. The joining sentinel is published before the clock is read:
// a sweeping committer that scans the slot either sees the sentinel (and
// skips truncation) or scanned before it, in which case this pin's clock
// load happens after the sweeper sampled its own (older) read timestamp,
// so rv is at least the sweep's floor and the snapshot is safe.
//
// The attempt's trace record opens before the clock sample, not after it:
// a snapshot read is never re-certified, so a writer that commits wholly
// between the sample and a later StartSeq would precede this attempt in
// the traced real-time order and yet be invisible to it — a violation the
// engine did not commit. Drawn first, EndSeq < StartSeq implies the
// writer published before rv was sampled.
func (tx *Tx) pin() {
	tx.k.SyncAt(syncpoint.Begin)
	tx.k.TraceBegin()
	tx.slot.ts.Store(slotJoining)
	tx.rv = clock.Load()
	tx.slot.ts.Store(tx.rv + slotBias)
}

// unpin deregisters the snapshot so committers may truncate past it.
func (tx *Tx) unpin() { tx.slot.ts.Store(slotInactive) }

// finish flushes the locally accumulated stats, deregisters the snapshot
// and returns the descriptor to the pool, backing arrays included (the
// garbage collector empties the pool, so nothing is pinned forever, and
// a wide transaction does not regrow its sets from nil each call). The
// retired-chain drain runs here, strictly after unpin: during commit the
// descriptor's own registration (rv ≤ every retire timestamp it just
// recorded) would hold the quiescence floor down and the drain could
// never free anything.
func (tx *Tx) finish() {
	if tx.pendingReads != 0 {
		st := tx.stat()
		st.snapshotReads.Add(tx.pendingReads)
		st.walkSteps.Add(tx.pendingWalk)
		tx.pendingReads, tx.pendingWalk = 0, 0
	}
	tx.unpin()
	tx.drainRetired()
	if tx.blockEnd != 0 && ClockStrategyInEffect() != GV7 {
		tx.drainBlock()
	}
	tx.reset()
	txPool.Put(tx)
}

// drainRetired recycles the prefix of the retired list proven
// unreachable: entries whose timestamp is strictly below every active
// registration (ts < m means every pre-swap holder, rv ≤ ts, is gone;
// a reader pinned at rv > ts observed the clock after the retire sample
// and therefore loads the replacement chain). The list is time-ordered,
// so the scan stops at the first survivor. While a long-pinned reader
// keeps the list growing past retireBudget versions, the oldest entries
// are dropped to the garbage collector and counted — correctness never
// depends on pooling. The cost is O(entries recycled or dropped): the
// head index advances past them, and the survivors move to the front
// only once the drained prefix fills half the slice, so a deep list
// behind a pinned reader costs nothing per finish beyond the epoch scan.
func (tx *Tx) drainRetired() {
	if len(tx.retired)-tx.retiredHead < retireDrainMin && tx.retiredVersions <= retireBudget {
		return
	}
	var pooled, dropped int
	if m, ok := minActiveRV(clock.Load()); ok {
		for tx.retiredHead < len(tx.retired) && tx.retired[tx.retiredHead].ts < m {
			r := tx.popRetired()
			r.v.recycle(r.c)
			pooled += r.n
		}
	}
	for tx.retiredVersions > retireBudget {
		dropped += tx.popRetired().n
	}
	if pooled+dropped == 0 {
		return
	}
	st := tx.stat()
	st.pooled.Add(uint64(pooled))
	if dropped > 0 {
		st.dropped.Add(uint64(dropped))
	}
	if h := tx.retiredHead; 2*h >= len(tx.retired) {
		n := copy(tx.retired, tx.retired[h:])
		clear(tx.retired[n:])
		tx.retired, tx.retiredHead = tx.retired[:n], 0
	}
}

// popRetired removes the oldest live retired entry, zeroing its slot so
// the descriptor pins no chain it no longer tracks.
func (tx *Tx) popRetired() retiredChain {
	r := tx.retired[tx.retiredHead]
	tx.retired[tx.retiredHead] = retiredChain{}
	tx.retiredHead++
	tx.retiredVersions -= r.n
	return r
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

// findWrite locates v in the write set. On a miss below the map
// promotion, the index is v's insertion position in the sorted slice.
func (tx *Tx) findWrite(v varBase) (int, bool) {
	if len(tx.writes) == 0 {
		return 0, false
	}
	if tx.wmap != nil {
		i, ok := tx.wmap[v]
		return i, ok
	}
	return tx.searchWrite(v)
}

// awaitPublished waits out a lock on v taken before this transaction
// pinned and returns the lock word that ended the wait (see Get).
// Publication is imminent unless the holder was preempted, so yield and
// then back off to real sleeps. Under the scheduling harness the holder is
// a parked worker — hand control to the schedule instead of spinning.
func (tx *Tx) awaitPublished(v varBase) uint64 {
	for spins := 0; ; spins++ {
		w := v.lockWord()
		if !lockword.Locked(w) || lockword.Version(w) >= tx.rv {
			return w
		}
		if tx.k.SyncSpin() {
			continue
		}
		if spins < 8 {
			runtime.Gosched()
		} else {
			d := time.Microsecond << uint(min(spins-8, 6))
			time.Sleep(d)
		}
	}
}

// chargeWalk accounts one snapshot read that examined walked versions.
func (tx *Tx) chargeWalk(walked int) {
	tx.pendingReads++
	tx.pendingWalk += uint64(walked)
	// The chain walk is the time half of the space-for-time trade: one
	// step per version examined, plus the read itself. This is the charge
	// that stops an unbounded scanner — the one transaction shape the
	// abort-free snapshot path would otherwise let run forever.
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Read + tx.k.Costs.Step*uint64(walked))
	}
}

// logRead records an update transaction's read of v, whose newest
// committed version was newest when the lock word was classified, for
// commit-time validation (first-committer-wins: the snapshot value must
// still be the newest at commit). Duplicate entries for recently re-read
// Vars are skipped; the snapshot is stable within the transaction, so a
// re-read returns the same version the recorded entry certifies.
func (tx *Tx) logRead(v varBase, newest uint64) {
	for i, n := len(tx.reads)-1, len(tx.reads)-readDedupWindow; i >= 0 && i >= n; i-- {
		if tx.reads[i].v == v {
			return
		}
	}
	tx.reads = append(tx.reads, readEntry{v: v, ver: newest})
}

// beginWrite is the part of Set that precedes its trace record.
func (tx *Tx) beginWrite() {
	if tx.ro {
		panic("mvstm: Set inside a read-only transaction (AtomicallyRO cannot write)")
	}
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step)
	}
}

// write returns v's write-set entry, adding an empty one on the first
// write of v. The pointer is valid until the write set next changes.
func (tx *Tx) write(v varBase) *writeEntry {
	i, found := tx.findWrite(v)
	if found {
		return &tx.writes[i]
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
		i = len(tx.writes)
		tx.wmap[v] = i
		tx.writes = append(tx.writes, writeEntry{v: v})
		return &tx.writes[i]
	}
	// Sorted insert keeps the slice in Var-id order, so commit locks in the
	// deadlock-free total order with no per-commit sort at all.
	tx.writes = append(tx.writes, writeEntry{})
	copy(tx.writes[i+1:], tx.writes[i:])
	tx.writes[i] = writeEntry{v: v}
	return &tx.writes[i]
}

// OrElse composes two transactional alternatives: it runs f, and if f
// blocks via Retry, rolls back f's writes and runs g instead. If g also
// blocks, the whole transaction waits (on the union of both branches'
// read sets) and re-runs — the same combinator as stm.Tx.OrElse. Inside
// AtomicallyRO the branches cannot block (Retry panics there), so OrElse
// degenerates to running f.
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
// including overwrites of pre-branch writes. The values live in the
// entries' pending builds, which the snapshot shares by pointer: every
// build alive now is marked shared, so a Set in the branch replaces it
// rather than overwriting the value the snapshot must keep.
func (tx *Tx) saveWrites() (restore func()) {
	for i := range tx.writes {
		tx.writes[i].shared = true
	}
	snap, msnap := slices.Clone(tx.writes), maps.Clone(tx.wmap)
	return func() {
		// A build not marked shared was taken after this save point and
		// captured by no later one: it dies with the branch.
		for i := range tx.writes {
			if e := &tx.writes[i]; e.nc != nil && !e.shared {
				e.v.recycle(e.nc)
			}
		}
		clear(tx.writes)
		tx.writes = append(tx.writes[:0], snap...)
		tx.wmap = msnap
	}
}

// Retry aborts the transaction and blocks the retry until at least one
// variable read so far changes. Calling Retry with an empty read set
// panics, since no write could ever wake the transaction; inside
// AtomicallyRO it panics too — the snapshot path records no read set to
// wait on (use Atomically for transactions that need Retry).
func (tx *Tx) Retry() {
	if tx.ro {
		panic("mvstm: Retry inside AtomicallyRO would sleep forever (the snapshot path records no read set to wait on)")
	}
	if len(tx.reads) == 0 {
		panic("mvstm: Retry with an empty read set would sleep forever")
	}
	// Taxonomy: a parked wait is a user-requested re-run, not a conflict
	// (and not counted in Stats.Aborts).
	tx.k.NoteAbort(enginekit.ExplicitRetry, 0)
	panic(enginekit.WaitSignal{})
}

// validateCommit checks, while the commit holds its write locks, that
// every read still returns its snapshot value: the Var's newest committed
// version must not exceed rv (any post-snapshot commit carries a greater
// one), and a foreign lock on a read Var is equally fatal — that writer
// has validated and will install a newer version, so letting both commits
// stand would admit write skew. An own-locked Var's word holds the
// embedded lock-time clock (see tryLock), not the committed version, so
// its check uses the pre-lock version saved in the write entry. On
// failure it returns the offending read's Var for contention
// attribution.
func (tx *Tx) validateCommit() (varBase, bool) {
	for i := range tx.reads {
		r := &tx.reads[i]
		w := r.v.lockWord()
		if !lockword.Locked(w) {
			if lockword.Version(w) > tx.rv {
				return r.v, false
			}
			continue
		}
		j, own := tx.searchWrite(r.v)
		if !own {
			return r.v, false
		}
		if tx.writes[j].prev > tx.rv {
			return r.v, false
		}
	}
	return nil, true
}

// recycleBuilds returns the attempt's never-published chain builds to
// the pool. Safe immediately — the chains are private to this descriptor
// (the attempt ended before, or instead of, publishing them). nc pointers
// are nilled so no entry can be recycled twice.
func (tx *Tx) recycleBuilds() {
	for i := range tx.writes {
		if e := &tx.writes[i]; e.nc != nil {
			e.v.recycle(e.nc)
			e.nc = nil
		}
	}
}

// commit attempts to append the transaction's writes as new versions
// atomically, truncating chains past the GC floor as it goes.
func (tx *Tx) commit() bool {
	if len(tx.writes) == 0 {
		return true // snapshot reads validate nothing: read-only commits are free
	}
	if tx.wmap != nil {
		// Large write sets append unsorted past the promotion point; one
		// sort re-establishes the deadlock-free lock order.
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
		tx.wmap = nil
	}
	st := tx.stat()
	// Complete every new chain optimistically before taking any lock: the
	// sweep's survivor copy and the minActiveRV scan happen outside the
	// lock window, which shrinks to lock → clock → validate →
	// stamp-and-publish. The write version is not known yet, so the new
	// head is stamped with it under the lock (the chain is private until
	// published); a chain that moved since the optimistic load is rebuilt
	// under the lock, which only happens under real per-Var write
	// contention. A commit that fails from here on leaves its builds to
	// the next reset, which recycles them.
	tx.minState = 0
	for i := range tx.writes {
		tx.writes[i].v.build(tx, &tx.writes[i], st)
	}
	// Price the commit before any lock is taken: the validation scan (one
	// step per read entry) and — the space half of the trade — every
	// version retained in the chains about to be published. A transaction
	// whose writes land on chains held long by a pinned reader pays for
	// that retention and runs dry instead of growing them forever. The
	// charge must not panic once locks are held, so it is soft and
	// exhaustion surfaces as a failed commit; the attempt loop translates
	// the exhausted meter into ErrOutOfBudget. (The rare rebuild-under-lock
	// path below is not re-charged: the pre-lock estimate already priced
	// this commit's retention within one version per contended chain.)
	if tx.k.Metered() {
		retained := uint64(0)
		for i := range tx.writes {
			retained += uint64(tx.writes[i].n)
		}
		if !tx.k.ChargeSoft(tx.k.Costs.Version*retained + tx.k.Costs.Step*uint64(len(tx.reads))) {
			return false
		}
	}
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
		tx.k.NoteAbort(enginekit.LockBusy, tx.writes[locked].v.id())
		return false
	}
	tx.k.SyncAt(syncpoint.PostLock)
	// The write version is fetched before validating (as in TL2 and the
	// simulated mvtm): any writer serialized after this point either fails
	// the ≤ rv check or is caught holding a lock. Both strategies draw a
	// version above a post-lock clock load (see clock.go).
	tx.k.SyncAt(syncpoint.PreClockStamp)
	wv := tx.advanceClock()
	if bad, ok := tx.validateCommit(); !ok {
		releaseLocked(locked)
		tx.k.NoteAbort(enginekit.CommitValidation, bad.id())
		return false
	}
	tx.k.SyncAt(syncpoint.PrePublish)
	hwm := int32(0)
	for i := range tx.writes {
		e := &tx.writes[i]
		if e.v.moved(e.base) {
			// A foreign commit landed between the optimistic build and our
			// lock; rebuild from the current chain (rare).
			e.v.build(tx, e, st)
		}
		if e.reclaimed > 0 {
			st.gcSweeps.Add(1)
			st.reclaimed.Add(uint64(e.reclaimed))
		}
		hwm = max(hwm, e.n)
		e.v.publish(e.nc, wv) // stamp and publish before the unlock's release store
		e.nc = nil
		e.v.unlock(wv)
	}
	// Retire the replaced chains: the timestamp is a clock sample taken
	// after every unlinking store above, so any reader still holding one
	// pinned before its swap and carries rv ≤ this value (see
	// retiredChain). drainRetired recycles them once every active
	// registration has moved strictly past it.
	rt := clock.Load()
	for i := range tx.writes {
		e := &tx.writes[i]
		n := int(e.n-1) + int(e.reclaimed) // the base chain: the build's survivors plus what it cut
		tx.retired = append(tx.retired, retiredChain{v: e.v, c: e.base, ts: rt, n: n})
		tx.retiredVersions += n
	}
	if ClockStrategyInEffect() == GV7 {
		// Publish the write version now that the locks are released:
		// strict serializability demands that a transaction pinning after
		// this commit returns reads the new versions, and pinned snapshots
		// have no extension path to recover from an unpublished commit.
		// Under concurrent commit traffic a later tick is usually already
		// published and this is a single shared load.
		helpClock(wv)
	}
	st.appended.Add(uint64(len(tx.writes)))
	st.maxChain(uint64(hwm))
	return true
}

// sweepFloor returns the GC floor for this commit's chain builds — the
// minimum registered read timestamp, sampled from the epoch table the
// first time a build needs it — or ok=false when a joiner was observed
// and the commit must not truncate. A floor sampled before the locks are
// taken and used after is still sound: the registered minimum is
// monotone, so an early sample is merely more conservative.
func (tx *Tx) sweepFloor(st *statShard) (minRV uint64, ok bool) {
	if tx.minState == 0 {
		// The sweep is about to sample the epoch table: a reader granted
		// here and pinning now must either be seen by the scan or make
		// the sweep skip (the joining-sentinel race the GC-truncation
		// pathology test interleaves against).
		tx.k.SyncAt(syncpoint.GCSweep)
		if m, ok := minActiveRV(tx.rv); ok {
			tx.minRV, tx.minState = m, 1
		} else {
			tx.minState = 2
			st.gcSkips.Add(1)
		}
	}
	return tx.minRV, tx.minState == 1
}

// Atomically runs fn inside an update transaction, retrying until it
// commits. Reads observe the snapshot at the transaction's pinned read
// timestamp; commit validates that every read is still current
// (first-committer-wins) and appends new versions. Returning a non-nil
// error aborts the transaction (its writes are discarded) and returns
// that error to the caller without retrying.
//
// Transactions that are read-only by construction should call
// AtomicallyRO instead: the snapshot path skips read-set logging and
// commit validation entirely and can never abort.
func Atomically(fn func(tx *Tx) error) error {
	return atomically(nil, fn, false)
}

// AtomicallyCtx is Atomically with a cancellation point: the context is
// checked before every attempt and while blocked in Retry, and a done
// context surfaces as a clean abort — buffered writes discarded, the
// epoch registration dropped, the pooled descriptor recycled — returning
// ctx.Err(). An attempt already past its check runs to completion, so a
// commit racing the cancellation may still land.
func AtomicallyCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomically(ctx, fn, false)
}

// AtomicallyRO runs fn as a snapshot (read-only) transaction: every read
// is served from the version chains at the transaction's pinned read
// timestamp, with no read-set logging, no validation, and no abort path —
// the transaction runs exactly once, which is the whole point of keeping
// versions (mv-permissiveness, the simulated mvtm's guarantee, at native
// speed). Returning a non-nil error returns it to the caller, as with
// Atomically.
//
// fn must not write: Set panics, and Retry panics since there is no
// recorded read set to wait on. Use Atomically for transactions that may
// write or need Retry.
func AtomicallyRO(fn func(tx *Tx) error) error {
	return atomically(nil, fn, true)
}

// AtomicallyROCtx is AtomicallyRO with a cancellation point: a context
// already done when the call starts returns ctx.Err() without running fn.
// The transaction itself still runs exactly once — snapshot reads never
// block on writers that started after the pin, so there is no retry loop
// to interrupt.
func AtomicallyROCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomically(ctx, fn, true)
}

// atomically is the one retry loop behind the four entry points; ro runs
// the call on the snapshot path, whose single attempt leaves the loop on
// its first pass: snapshot reads cannot conflict and Set/Retry panic with
// usage errors, so it ends in a user error, a free commit (nothing to
// lock or validate) or — walking chains under a budget — the one abort it
// has, which is never retried since the grant is per call. A nil ctx
// costs one predictable branch per attempt.
func atomically(ctx context.Context, fn func(tx *Tx) error, ro bool) error {
	tx := txPool.Get().(*Tx)
	tx.ro = ro
	tx.k.Begin(!ro)
	defer func() {
		if r := recover(); r != nil {
			// A panic escaping fn (including the Set/Retry usage errors of
			// the snapshot path) must not strand the descriptor: finish
			// drops the epoch registration (the GC floor must not stay
			// pinned forever) and recycles the descriptor into the pool. No
			// engine locks can be held here — commit runs no user code and
			// never panics while holding its write locks.
			tx.finish()
			panic(r)
		}
	}()
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				tx.finish()
				return err
			}
		}
		tx.reset()
		tx.pin()
		err, ctl := enginekit.RunAttempt(tx, fn)
		switch {
		case ctl == enginekit.CtlRetryWait:
			tx.k.TraceEnd(false)
			// Deregister the snapshot before blocking: a transaction asleep
			// in Retry must not hold the GC floor down.
			tx.unpin()
			tx.k.Park(ctx, tx.readsChanged)
			continue // the wait already yielded; retry immediately
		case ctl == enginekit.CtlOK && err != nil:
			tx.k.TraceEnd(false)
			tx.finish()
			return err // user error: abort without retry
		case ctl == enginekit.CtlOK && tx.commit():
			tx.k.Committed(attempt, tx.ro)
			tx.finish()
			return nil
		}
		// The only conflict-abort source is commit (validation or lock
		// acquisition failed): snapshot reads cannot fail mid-attempt.
		if tx.k.Failed(ctl) || !tx.k.ChargeSoft(tx.k.Costs.Retry) {
			return tx.budgetAbort()
		}
		backoff.Attempt(attempt)
	}
}

// readsChanged is the predicate a parked Retry waits on: some variable in
// the read set has a version newer than the one read. Each probe is a
// single atomic load of the lock word.
func (tx *Tx) readsChanged() bool {
	for i := range tx.reads {
		r := &tx.reads[i]
		if lockword.Version(r.v.lockWord()) != r.ver {
			return true
		}
	}
	return false
}

// Sanity check that Var implements varBase.
var _ varBase = (*Var[int])(nil)

// String implements fmt.Stringer for diagnostics: the newest published
// version and the chain length. Registered like Load — the chain must
// not be recycled while it is being formatted.
func (v *Var[T]) String() string {
	b := pinPeek()
	defer unpinPeek(b)
	c := v.loadChain()
	return fmt.Sprintf("Var(%v@v%d,chain=%d)", c.head[0].val, c.head[0].ver, c.len())
}
