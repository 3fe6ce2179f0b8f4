package stm

import (
	"sync/atomic"

	"repro/internal/enginekit"
)

// Stats is a snapshot of the engine-wide transaction counters. Counters
// are maintained on padded per-descriptor stripes, so keeping them does
// not add a shared contended word to the commit path (which would defeat
// the point of the clock-strategy work they exist to measure).
type Stats struct {
	// Commits counts transactions that committed (including read-only).
	Commits uint64
	// ROCommits counts the subset of Commits that committed on the
	// read-only fast path: AtomicallyRO calls plus descriptors Atomically
	// promoted after an abort with an empty write set. These commits did
	// no read-set logging, no locking and no validation.
	ROCommits uint64
	// Aborts counts failed attempts: conflict aborts, stale-read aborts
	// and failed commits. Commits+Aborts is the total attempt count, so
	// the abort ratio is Aborts / (Commits + Aborts).
	Aborts uint64
	// BudgetAborts counts transactions aborted with ErrOutOfBudget by the
	// configured BudgetPolicy — a subset of Aborts (each exhausted call
	// contributes exactly one), so metering aborts are separable from
	// genuine conflicts when tuning a policy or feeding an admission
	// controller.
	BudgetAborts uint64
	// Extensions counts successful read-timestamp extensions: stale-clock
	// aborts converted into O(|read set|) revalidations.
	Extensions uint64
	// ExtensionFailures counts extension attempts that found an
	// invalidated read entry — genuine conflicts, which abort.
	ExtensionFailures uint64
	// ClockIncrements counts published global-clock increments;
	// ClockAdoptions counts GV4/GV6 commits that lost the increment race
	// and adopted the winner's tick instead of retrying. Their sum is at
	// most the number of update commits; the gap to that number (under
	// GV6) is commits that left the clock untouched entirely.
	ClockIncrements uint64
	ClockAdoptions  uint64
	// ClockBlockClaims counts GV7 block claims on the allocator word: the
	// number of shared-line RMWs the batched strategy actually performed.
	// Commits ÷ ClockBlockClaims approaches the block size K in steady
	// state — the amortization GV7 exists to buy.
	ClockBlockClaims uint64
	// RTSAdvances counts TicToc read-timestamp advances: CASes that raised
	// a Var's rts so a read interval intersection stayed non-empty (during
	// execution) or covered the commit timestamp (at commit). This is the
	// "readers write" cost TicToc trades for its clock-free read path.
	RTSAdvances uint64
	// AbortReasons classifies every abort at the site it happened, so an
	// abort-ratio spike can be attributed (lock-busy vs read certification
	// vs commit validation vs …) without re-running under a tracer.
	AbortReasons AbortReasons
}

// AbortReasons is the per-class abort breakdown, one definition shared by
// all three native engines and the serving tier (it aliases
// internal/enginekit.AbortReasons, where each class is documented):
// uint64 counters ReadCertify, CommitValidation, LockBusy, Extension,
// Budget and ExplicitRetry, with Total, Sub and Map accessors (Map keys
// are the stable snake_case names /stats and tmstat expose). The four
// conflict classes partition Stats.Aborts minus budget refusals — each
// failed attempt increments exactly one at the site that killed it —
// Budget equals Stats.BudgetAborts, and ExplicitRetry counts user Retry
// signals (parked waits are not in Stats.Aborts). Classes an engine
// cannot produce stay zero.
type AbortReasons = enginekit.AbortReasons

// AbortRatio returns Aborts / (Commits + Aborts), or 0 for an empty
// snapshot.
func (s Stats) AbortRatio() float64 { return enginekit.AbortRatio(s.Commits, s.Aborts) }

// Sub returns the counter deltas s - t; use snapshots around a workload to
// measure just that workload.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Commits:           s.Commits - t.Commits,
		ROCommits:         s.ROCommits - t.ROCommits,
		Aborts:            s.Aborts - t.Aborts,
		BudgetAborts:      s.BudgetAborts - t.BudgetAborts,
		Extensions:        s.Extensions - t.Extensions,
		ExtensionFailures: s.ExtensionFailures - t.ExtensionFailures,
		ClockIncrements:   s.ClockIncrements - t.ClockIncrements,
		ClockAdoptions:    s.ClockAdoptions - t.ClockAdoptions,
		ClockBlockClaims:  s.ClockBlockClaims - t.ClockBlockClaims,
		RTSAdvances:       s.RTSAdvances - t.RTSAdvances,
		AbortReasons:      s.AbortReasons.Sub(t.AbortReasons),
	}
}

// statShard is one stripe of counters, padded out to its own cache lines
// so stripes do not false-share. The kit's 10 shared counters plus the 6
// protocol counters fill the 128-byte two-line target exactly.
type statShard struct {
	enginekit.Counters
	extensions        atomic.Uint64
	extensionFailures atomic.Uint64
	clockIncrements   atomic.Uint64
	clockAdoptions    atomic.Uint64
	clockBlockClaims  atomic.Uint64
	rtsAdvances       atomic.Uint64
	_                 [128 - 16*8]byte
}

// stat returns the descriptor's counter stripe.
func (tx *Tx) stat() *statShard { return &kit.stripes[tx.k.Shard()&(enginekit.Stripes-1)] }

// ReadStats sums the stripes into one snapshot. It is safe to call
// concurrently with transactions; the snapshot is per-counter atomic (not
// a cross-counter consistent cut), which is what a monitoring read wants.
func ReadStats() Stats {
	c := kit.Common()
	s := Stats{Commits: c.Commits, ROCommits: c.ROCommits, Aborts: c.Aborts, BudgetAborts: c.BudgetAborts, AbortReasons: c.AbortReasons}
	for i := range kit.stripes {
		sh := &kit.stripes[i]
		s.Extensions += sh.extensions.Load()
		s.ExtensionFailures += sh.extensionFailures.Load()
		s.ClockIncrements += sh.clockIncrements.Load()
		s.ClockAdoptions += sh.clockAdoptions.Load()
		s.ClockBlockClaims += sh.clockBlockClaims.Load()
		s.RTSAdvances += sh.rtsAdvances.Load()
	}
	return s
}
