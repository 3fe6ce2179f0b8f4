package norecstm

import (
	"sync/atomic"

	"repro/internal/enginekit"
)

// Stats is a snapshot of the engine-wide transaction counters. Counters
// live on padded per-descriptor stripes so keeping them adds no shared
// contended word next to the sequence lock they help measure.
type Stats struct {
	// Commits counts committed transactions; Aborts counts failed
	// attempts, so the abort ratio is Aborts / (Commits + Aborts).
	Commits uint64
	Aborts  uint64
	// BudgetAborts counts transactions aborted with ErrOutOfBudget by the
	// configured BudgetPolicy — a subset of Aborts (each exhausted call
	// contributes exactly one).
	BudgetAborts uint64
	// ROCommits counts the subset of Commits that committed on the
	// read-only fast path (AtomicallyRO): no read log, no revalidation.
	ROCommits uint64
	// Revalidations counts completed read-set value-revalidation scans —
	// NOrec's extension analogue, triggered whenever the global sequence
	// moves under a live transaction. Each scan is Θ(|read set|).
	Revalidations uint64
	// AbortReasons classifies every abort at its site. NOrec can only
	// produce a subset of the classes: ReadCertify (a moved sequence
	// killed an execution-time revalidation, or the RO fast path hit a
	// moved sequence past its first certified read), CommitValidation
	// (the commit-time revalidation inside the sequence-CAS loop found an
	// overwritten read), Budget and ExplicitRetry. LockBusy and Extension
	// stay zero: a reader that meets the odd (locked) sequence spins
	// rather than aborting, and NOrec's extension analogue is the
	// revalidation scan itself, already split by call site into the two
	// classes above.
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
		Commits:       s.Commits - t.Commits,
		Aborts:        s.Aborts - t.Aborts,
		BudgetAborts:  s.BudgetAborts - t.BudgetAborts,
		ROCommits:     s.ROCommits - t.ROCommits,
		Revalidations: s.Revalidations - t.Revalidations,
		AbortReasons:  s.AbortReasons.Sub(t.AbortReasons),
	}
}

// statShard is one stripe of counters, padded so stripes do not
// false-share: the kit's 10 shared counters plus revalidations is 11
// words, padded out to the 128-byte two-line target.
type statShard struct {
	enginekit.Counters
	revalidations atomic.Uint64
	_             [128 - 11*8]byte
}

func (tx *Tx) stat() *statShard { return &kit.stripes[tx.k.Shard()&(enginekit.Stripes-1)] }

// ReadStats sums the stripes into one snapshot; safe to call concurrently
// with transactions (per-counter atomic, not a cross-counter cut).
func ReadStats() Stats {
	c := kit.Common()
	s := Stats{Commits: c.Commits, ROCommits: c.ROCommits, Aborts: c.Aborts, BudgetAborts: c.BudgetAborts, AbortReasons: c.AbortReasons}
	for i := range kit.stripes {
		s.Revalidations += kit.stripes[i].revalidations.Load()
	}
	return s
}
