package mvstm

import (
	"sync/atomic"

	"repro/internal/enginekit"
)

// Stats is a snapshot of the engine-wide transaction counters. Counters
// are maintained on padded per-descriptor stripes; snapshot reads additionally batch their counts per call so the
// abort-free read path pays no atomic add per read.
type Stats struct {
	// Commits counts transactions that committed (including snapshot
	// transactions); ROCommits counts the AtomicallyRO subset, which by
	// construction equals the number of AtomicallyRO calls that returned
	// nil — snapshot transactions never abort.
	Commits   uint64
	ROCommits uint64
	// Aborts counts failed update attempts (lock conflicts and failed
	// commit validations) plus budget aborts. Commits+Aborts is the total
	// attempt count.
	Aborts uint64
	// BudgetAborts counts transactions aborted with ErrOutOfBudget by the
	// configured BudgetPolicy — a subset of Aborts (each exhausted call
	// contributes exactly one). Unlike conflict aborts it can include
	// snapshot (AtomicallyRO) transactions, whose chain walks are metered.
	BudgetAborts uint64
	// SnapshotReads counts reads served from version chains (both paths);
	// WalkSteps counts the versions examined serving them, so
	// WalkSteps/SnapshotReads is the mean chain walk — the time half of
	// the space-for-time trade.
	SnapshotReads uint64
	WalkSteps     uint64
	// VersionsAppended counts versions committed; VersionsReclaimed counts
	// versions truncated by the epoch GC. Their difference bounds the live
	// version count (up to the initial versions).
	VersionsAppended  uint64
	VersionsReclaimed uint64
	// VersionsPooled counts the versions of replaced chains whose storage
	// was recycled through the size-classed free lists after epoch
	// quiescence (see drainRetired) — the steady-state allocation-free
	// signal. VersionsDropped counts those a descriptor's retired list
	// sent to the runtime GC instead, because a reader stayed pinned
	// while the list outgrew its version budget. A replaced chain's
	// versions are pooled, dropped, or still pending on a retired list
	// (a list whose descriptor the runtime evicts from the pool goes to
	// the GC uncounted). Each counts whole chains, surviving copies
	// included, so it is not bounded by VersionsReclaimed.
	VersionsPooled  uint64
	VersionsDropped uint64
	// ClockBlockClaims counts GV7 allocator claims — one fetch of
	// gv7BlockSize ticks each. Under GV4 it stays 0; under GV7,
	// Commits/ClockBlockClaims approaches the block size when the
	// descriptor pool is stable (the amortization working).
	ClockBlockClaims uint64
	// GCSweeps counts chain truncations — one per chain swept, so a
	// commit whose write set truncates k chains adds k (compare against
	// VersionsReclaimed, not Commits). GCSkips counts commits whose sweep
	// was abandoned conservatively because a transaction was observed
	// mid-registration.
	GCSweeps uint64
	GCSkips  uint64
	// ChainHWM is the high-water mark of any published chain's length — an
	// absolute engine-lifetime maximum, not a delta (Sub carries the newer
	// snapshot's value through). Bounded chains under churn are the GC's
	// acceptance signal; a pinned long reader shows up here as growth.
	ChainHWM uint64
	// AbortReasons classifies every abort at its site. Snapshot reads
	// cannot fail mid-attempt, so this engine produces only LockBusy
	// (commit could not acquire its write locks), CommitValidation (a
	// validated read was overwritten or foreign-locked), Budget and
	// ExplicitRetry; ReadCertify and Extension stay zero by construction.
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

// MeanChainWalk returns WalkSteps / SnapshotReads, or 0 for an empty
// snapshot.
func (s Stats) MeanChainWalk() float64 {
	if s.SnapshotReads == 0 {
		return 0
	}
	return float64(s.WalkSteps) / float64(s.SnapshotReads)
}

// Sub returns the counter deltas s - t (ChainHWM, an absolute high-water
// mark, is carried from s); use snapshots around a workload to measure
// just that workload.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Commits:           s.Commits - t.Commits,
		ROCommits:         s.ROCommits - t.ROCommits,
		Aborts:            s.Aborts - t.Aborts,
		BudgetAborts:      s.BudgetAborts - t.BudgetAborts,
		SnapshotReads:     s.SnapshotReads - t.SnapshotReads,
		WalkSteps:         s.WalkSteps - t.WalkSteps,
		VersionsAppended:  s.VersionsAppended - t.VersionsAppended,
		VersionsReclaimed: s.VersionsReclaimed - t.VersionsReclaimed,
		VersionsPooled:    s.VersionsPooled - t.VersionsPooled,
		VersionsDropped:   s.VersionsDropped - t.VersionsDropped,
		ClockBlockClaims:  s.ClockBlockClaims - t.ClockBlockClaims,
		GCSweeps:          s.GCSweeps - t.GCSweeps,
		GCSkips:           s.GCSkips - t.GCSkips,
		ChainHWM:          s.ChainHWM,
		AbortReasons:      s.AbortReasons.Sub(t.AbortReasons),
	}
}

// statShard is one stripe of counters, padded out to its own cache lines
// so stripes do not false-share: the kit's 10 shared counters plus 10
// protocol counters is 20 words (160 bytes), padded to the next 128-byte
// multiple.
type statShard struct {
	enginekit.Counters
	snapshotReads    atomic.Uint64
	walkSteps        atomic.Uint64
	appended         atomic.Uint64
	reclaimed        atomic.Uint64
	pooled           atomic.Uint64
	dropped          atomic.Uint64
	clockBlockClaims atomic.Uint64
	gcSweeps         atomic.Uint64
	gcSkips          atomic.Uint64
	chainHWM         atomic.Uint64
	_                [256 - 20*8]byte
}

// stat returns the descriptor's counter stripe.
func (tx *Tx) stat() *statShard { return &kit.stripes[tx.k.Shard()&(enginekit.Stripes-1)] }

// maxChain raises the stripe's chain-length high-water mark to n.
func (sh *statShard) maxChain(n uint64) {
	for {
		cur := sh.chainHWM.Load()
		if n <= cur || sh.chainHWM.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ReadStats sums the stripes into one snapshot (ChainHWM takes the
// maximum). It is safe to call concurrently with transactions; the
// snapshot is per-counter atomic, not a cross-counter consistent cut.
func ReadStats() Stats {
	c := kit.Common()
	s := Stats{Commits: c.Commits, ROCommits: c.ROCommits, Aborts: c.Aborts, BudgetAborts: c.BudgetAborts, AbortReasons: c.AbortReasons}
	for i := range kit.stripes {
		sh := &kit.stripes[i]
		s.SnapshotReads += sh.snapshotReads.Load()
		s.WalkSteps += sh.walkSteps.Load()
		s.VersionsAppended += sh.appended.Load()
		s.VersionsReclaimed += sh.reclaimed.Load()
		s.VersionsPooled += sh.pooled.Load()
		s.VersionsDropped += sh.dropped.Load()
		s.ClockBlockClaims += sh.clockBlockClaims.Load()
		s.GCSweeps += sh.gcSweeps.Load()
		s.GCSkips += sh.gcSkips.Load()
		s.ChainHWM = max(s.ChainHWM, sh.chainHWM.Load())
	}
	return s
}
