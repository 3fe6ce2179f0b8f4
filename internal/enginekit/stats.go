package enginekit

import "sync/atomic"

// AbortReasons is the per-class abort breakdown of all three native
// engines; classes an engine cannot produce stay zero. The conflict
// classes (everything but Budget and ExplicitRetry) partition
// Stats.Aborts minus budget refusals: each failed attempt increments
// exactly one of them at the site that killed it (see ExplicitRetry for
// the one demotion corner that lands there instead).
type AbortReasons struct {
	// ReadCertify: a read could not be certified — the raced re-load
	// bound was exceeded, a stale version could not be covered on a path
	// with nothing to revalidate (a read-only fast path past its first
	// read, a promotion demoted after certified-but-unlogged reads), or
	// NOrec's execution-time value revalidation found an overwritten read.
	ReadCertify uint64
	// CommitValidation: commit-time revalidation of the read set found
	// an entry overwritten (or persistently foreign-locked) — the
	// genuine write-after-read conflict class.
	CommitValidation uint64
	// LockBusy: the attempt died waiting on someone else's commit lock —
	// a read hit a locked word, or commit could not acquire its own
	// write locks.
	LockBusy uint64
	// Extension: a read-timestamp extension (or TicToc prior-entry
	// sweep) found an invalidated entry and the attempt aborted.
	Extension uint64
	// Budget: the configured BudgetPolicy refused the work — equal to
	// Stats.BudgetAborts. A refusal that lands on the retry charge of an
	// attempt already counted under a conflict class adds a second
	// reason to that single abort, so Total can slightly exceed
	// Stats.Aborts under metering.
	Budget uint64
	// ExplicitRetry counts Retry signals from user code: parked waits
	// (not in Stats.Aborts — the attempt sleeps instead of spinning),
	// OrElse branches that fell through to their alternative, and the
	// rare promoted-RO attempt a Retry demoted back to the full
	// pipeline (that one is in Stats.Aborts). A blocked-queue workload
	// shows up here, not in the conflict classes.
	ExplicitRetry uint64
}

// Abort-reason indices into Counters.Reasons, in AbortReasons field
// order. The array keeps the per-class increment a single indexed Add on
// the descriptor's own stripe.
const (
	ReadCertify = iota
	CommitValidation
	LockBusy
	Extension
	Budget
	ExplicitRetry
	NReasons
)

// reasonNames are the stable snake_case keys the serving tier and tmstat
// expose, indexed like Counters.Reasons.
var reasonNames = [NReasons]string{
	"read_certify", "commit_validation", "lock_busy", "extension", "budget", "explicit_retry",
}

// fields lists the classes in index order. Total, Sub, Map and the
// stripe summation all go through it, so a new class is added here, in
// the constants and in reasonNames, and nowhere else.
func (r *AbortReasons) fields() [NReasons]*uint64 {
	return [NReasons]*uint64{
		&r.ReadCertify, &r.CommitValidation, &r.LockBusy, &r.Extension, &r.Budget, &r.ExplicitRetry,
	}
}

// Total sums every class (see Budget and ExplicitRetry for the two
// classes that are not subsets of Stats.Aborts).
func (r AbortReasons) Total() uint64 {
	var n uint64
	for _, f := range r.fields() {
		n += *f
	}
	return n
}

// Sub returns the per-class deltas r - t.
func (r AbortReasons) Sub(t AbortReasons) AbortReasons {
	tf := t.fields()
	for i, f := range r.fields() {
		*f -= *tf[i]
	}
	return r
}

// Map returns the breakdown keyed by the stable snake_case names the
// serving tier and tmstat expose.
func (r AbortReasons) Map() map[string]uint64 {
	m := make(map[string]uint64, NReasons)
	for i, f := range r.fields() {
		m[reasonNames[i]] = *f
	}
	return m
}

// Stripes is the number of counter stripes per engine; a power of two so
// stripe selection is a mask.
const Stripes = 16

// Counters is the part of a stat stripe every engine keeps the same way.
// An engine's padded statShard embeds one beside its own protocol
// counters, so counting a commit or classifying an abort stays an Add on
// the descriptor's own cache lines.
type Counters struct {
	Commits      atomic.Uint64
	ROCommits    atomic.Uint64
	Aborts       atomic.Uint64
	BudgetAborts atomic.Uint64
	Reasons      [NReasons]atomic.Uint64
}

// Common is a snapshot of the counters all engines share; each engine's
// Stats carries these fields plus its protocol counters.
type Common struct {
	// Commits counts committed transactions, ROCommits the subset that
	// committed on the engine's read-only path.
	Commits   uint64
	ROCommits uint64
	// Aborts counts failed attempts, BudgetAborts the subset refused by
	// the BudgetPolicy (one per exhausted call).
	Aborts       uint64
	BudgetAborts uint64
	AbortReasons AbortReasons
}

// Sub returns the counter deltas c - t.
func (c Common) Sub(t Common) Common {
	return Common{
		Commits:      c.Commits - t.Commits,
		ROCommits:    c.ROCommits - t.ROCommits,
		Aborts:       c.Aborts - t.Aborts,
		BudgetAborts: c.BudgetAborts - t.BudgetAborts,
		AbortReasons: c.AbortReasons.Sub(t.AbortReasons),
	}
}

// AbortRatio returns Aborts / (Commits + Aborts), or 0 for an empty
// snapshot.
func (c Common) AbortRatio() float64 { return AbortRatio(c.Commits, c.Aborts) }

// AbortRatio returns aborts / (commits + aborts), or 0 when both are 0.
func AbortRatio(commits, aborts uint64) float64 {
	if commits+aborts == 0 {
		return 0
	}
	return float64(aborts) / float64(commits+aborts)
}

// Common sums the engine's stripes into one snapshot. It is safe to call
// concurrently with transactions; the snapshot is per-counter atomic (not
// a cross-counter consistent cut), which is what a monitoring read wants.
func (k *Kit) Common() Common {
	var c Common
	reasons := c.AbortReasons.fields()
	for _, s := range k.stripes {
		c.Commits += s.Commits.Load()
		c.ROCommits += s.ROCommits.Load()
		c.Aborts += s.Aborts.Load()
		c.BudgetAborts += s.BudgetAborts.Load()
		for i, f := range reasons {
			*f += s.Reasons[i].Load()
		}
	}
	return c
}
