package norecstm

// Test-only exports for the budget, panic-safety, tracing and
// scheduling-harness tests.

import (
	"repro/internal/syncpoint"
	"repro/internal/tm"
)

// StartTrace enables history tracing (see internal/enginekit). Call with no
// transactions in flight, before spawning workload goroutines.
func StartTrace() { kit.StartTrace() }

// StopTrace disables tracing and returns the recorded history. Call
// after joining every workload goroutine.
func StopTrace() *tm.History { return kit.StopTrace() }

// SetSyncHook installs the scheduling-harness hook (see internal/enginekit):
// every transaction begun while it is set calls h at each engine sync
// point, and proc supplies the harness worker id traced as the history
// Proc. Install and remove (h = nil) only with no transactions in
// flight, and run no transactions outside the harness while it is set.
func SetSyncHook(h func(syncpoint.Point), proc func() int) { kit.SetSyncHook(h, proc) }

// SeqQuiescent reports whether the global sequence lock is released (even
// value): every abort path must leave it so, or the engine deadlocks.
func SeqQuiescent() bool { return seq.Load()&1 == 0 }

// BudgetLeft reports the descriptor's remaining work-budget grant.
func BudgetLeft(tx *Tx) uint64 { return tx.k.Left() }

// ParkRound reports the pacing round the descriptor's most recent parked
// Retry reached (see enginekit.PaceSleep: rounds 0..3 yield, later ones
// sleep).
func ParkRound(tx *Tx) int { return tx.k.ParkRound() }
