package stm

import (
	"repro/internal/syncpoint"
	"repro/internal/tm"
	"repro/internal/tm/lockword"
)

// Test-only exports: the native history trace hook (see internal/enginekit) and a
// few descriptor internals the RO fast-path tests assert on.

// StartTrace enables history tracing. Call with no transactions in
// flight, before spawning workload goroutines.
func StartTrace() { kit.StartTrace() }

// StopTrace disables tracing and returns the recorded history. Call after
// joining every workload goroutine.
func StopTrace() *tm.History { return kit.StopTrace() }

// SetSyncHook installs the scheduling-harness hook (see internal/enginekit):
// every transaction begun while it is set calls h at each engine sync
// point, and proc supplies the harness worker id traced as the history
// Proc. Install and remove (h = nil) only with no transactions in
// flight, and run no transactions outside the harness while it is set.
func SetSyncHook(h func(syncpoint.Point), proc func() int) { kit.SetSyncHook(h, proc) }

// ReadSetLen reports how many read-set entries the descriptor has logged;
// the RO fast path must keep it at zero.
func ReadSetLen(tx *Tx) int { return len(tx.reads) }

// ROCertifiedReads reports how many reads the current attempt certified on
// the read-only fast path.
func ROCertifiedReads(tx *Tx) int { return tx.roReads }

// IsRO reports whether the descriptor is running on the read-only fast
// path (AtomicallyRO, or promoted by Atomically).
func IsRO(tx *Tx) bool { return tx.ro }

// IsPromoted reports whether the descriptor was promoted to the RO path by
// Atomically's empty-write-set guess (as opposed to AtomicallyRO).
func IsPromoted(tx *Tx) bool { return tx.promoted }

// KeyTowerHeight exposes the OrderedMap's deterministic tower height so
// the fuzz seeds can target tower-height edge cases (tallest/shortest
// keys of the fuzz keyspace).
func KeyTowerHeight(key string) int { return towerHeight(omHash(key)) }

// OrderedMapFootprint exposes the heap cost of a stored key (see
// orderedmap_internal_test.go) to BenchmarkOrderedMapFootprint.
func OrderedMapFootprint(n int) (bytesPerKey, objectsPerKey float64) { return orderedMapFootprint(n) }

// VarLocked reports whether v's versioned lock word currently has the
// lock bit set; the budget and panic-safety tests assert every abort path
// leaves it clear.
func VarLocked[T any](v *Var[T]) bool { return lockword.Locked(v.lw.Load()) }

// BudgetLeft reports the descriptor's remaining work-budget grant, for
// pinning down exactly where a charge lands.
func BudgetLeft(tx *Tx) uint64 { return tx.k.Left() }

// SetGV7BlockSizeForTest overrides the GV7 block size K and returns a
// restore func. Call only while the engine is quiescent; the block-edge
// tests use tiny blocks to hit exhaustion and drain without K commits.
func SetGV7BlockSizeForTest(k uint64) (restore func()) {
	old := gv7BlockSize
	gv7BlockSize = k
	return func() { gv7BlockSize = old }
}

// GV7BlockForTest exposes the descriptor's cached tick block.
func GV7BlockForTest(tx *Tx) (next, end uint64) { return tx.blockNext, tx.blockEnd }

// ClockAllocForTest exposes GV7's allocation high-water mark.
func ClockAllocForTest() uint64 { return clockAlloc.Load() }

// ClockForTest exposes the published global clock.
func ClockForTest() uint64 { return clock.Load() }

// DrainBlockForTest exercises the descriptor-recycle drain path directly
// on a descriptor that holds a (possibly partially used) block.
func DrainBlockForTest(tx *Tx) { tx.drainBlock() }

// ClaimBlockForTest claims a fresh GV7 block for the descriptor as a
// post-lock clock load of c would.
func ClaimBlockForTest(tx *Tx, c uint64) { tx.claimBlock(c) }

// AdvanceClockForTest drives the commit-time clock advance directly (the
// caller owns no locks, so use only on quiescent engines).
func AdvanceClockForTest(tx *Tx) (wv uint64, quiescent bool) { return tx.advanceClock() }

// NewTxForTest hands out a pooled descriptor (and a release func) so the
// block-lifecycle tests can drive claim/drain without running commits.
func NewTxForTest() (*Tx, func()) {
	tx := txPool.Get().(*Tx)
	return tx, tx.release
}

// VarTS exposes a Var's TicToc (wts, rts) pair for the interval tests.
func VarTS[T any](v *Var[T]) (wts, rts uint64) {
	pl := lockword.Version(v.lw.Load())
	return ttWts(pl), ttRts(pl)
}

// TTInterval exposes the descriptor's running validity-interval
// intersection under TicToc.
func TTInterval(tx *Tx) (lo, hi uint64) { return tx.rv, tx.ttHi }
