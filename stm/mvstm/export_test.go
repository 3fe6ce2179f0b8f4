package mvstm

import (
	"unsafe"

	"repro/internal/syncpoint"
	"repro/internal/tm"
	"repro/internal/tm/lockword"
)

// Test-only exports: the native history trace hook (see internal/enginekit) and the
// chain internals the GC and fuzz tests assert on.

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

// ChainLen reports the number of versions currently published on v's
// chain.
func ChainLen[T any](v *Var[T]) int {
	b := pinPeek()
	defer unpinPeek(b)
	return v.loadChain().len()
}

// ChainVersions reports the version timestamps on v's chain,
// newest-first (for asserting truncation boundaries).
func ChainVersions[T any](v *Var[T]) []uint64 {
	b := pinPeek()
	defer unpinPeek(b)
	c := v.loadChain()
	out := make([]uint64, c.len())
	for i := range out {
		out[i] = c.index(i).ver
	}
	return out
}

// ClockForTest reports the published clock; ClockAllocForTest the GV7
// allocation high-water mark.
func ClockForTest() uint64      { return clock.Load() }
func ClockAllocForTest() uint64 { return clockAlloc.Load() }

// SetGV7BlockSizeForTest overrides the GV7 block size, returning a
// restore func. Call while quiescent.
func SetGV7BlockSizeForTest(k uint64) func() {
	old := gv7BlockSize
	gv7BlockSize = k
	return func() { gv7BlockSize = old }
}

// RetiredVersionsForTest reports the versions held by the descriptor's
// retired list as observed inside a transaction on it; RetireBudget is
// the bound drainRetired keeps it under between transactions.
func RetiredVersionsForTest(tx *Tx) int { return tx.retiredVersions }

const RetireBudget = retireBudget

// RetiredStaleForTest counts the chains the descriptor's retired slice
// still references outside its live window: entries drained, dropped or
// compacted away must be zeroed, or a pooled descriptor pins chains it
// no longer tracks.
func RetiredStaleForTest(tx *Tx) int {
	n := 0
	for i, r := range tx.retired[:cap(tx.retired)] {
		if (i < tx.retiredHead || i >= len(tx.retired)) && r.c != nil {
			n++
		}
	}
	return n
}

// ReadSetLen reports how many read-set entries the descriptor has logged;
// the snapshot path must keep it at zero.
func ReadSetLen(tx *Tx) int { return len(tx.reads) }

// IsRO reports whether the descriptor is running on the snapshot path.
func IsRO(tx *Tx) bool { return tx.ro }

// PinnedRV reports the descriptor's pinned read timestamp.
func PinnedRV(tx *Tx) uint64 { return tx.rv }

// VarLocked reports whether v's versioned lock word currently has the
// lock bit set; the budget tests assert every abort path leaves it clear.
func VarLocked[T any](v *Var[T]) bool { return lockword.Locked(v.lw.Load()) }

// ActivePins counts epoch slots currently holding a registration (joining
// or pinned): with no transactions in flight it must be zero, or a
// dropped registration would hold the GC floor down forever.
func ActivePins() int {
	n := 0
	if sl := slotList.Load(); sl != nil {
		for _, s := range *sl {
			if s.ts.Load() != slotInactive {
				n++
			}
		}
	}
	return n
}

// VersionSize reports the bytes one retained version of a Var[T] takes in
// its chain.
func VersionSize[T any]() uintptr { return unsafe.Sizeof(version[T]{}) }
