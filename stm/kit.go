package stm

import (
	"repro/internal/enginekit"
	"repro/internal/loghist"
	"repro/internal/telemetry"
	"repro/stm/budget"
)

// kit is the engine's one block of cross-cutting mutable state: the
// shared enginekit.Kit (metering policy, admission gate, contention
// profiler, latency sampling, the test-only sync hook and trace) and the
// padded stripes its descriptors count on. Everything below forwards to
// it; see internal/enginekit for the mechanisms.
var kit struct {
	enginekit.Kit
	stripes [enginekit.Stripes]statShard
}

func init() {
	kit.Init("stm", telemetry.NamespaceSTM, func(i int) *enginekit.Counters { return &kit.stripes[i].Counters })
}

// ErrOutOfBudget is returned by Atomically/AtomicallyRO when the
// transaction exhausts the work budget granted by the configured
// BudgetPolicy (see SetBudgetPolicy). The abort is clean: no locks are
// held, buffered writes are discarded, the pooled descriptor is recycled,
// and the attempt is counted in Stats.Aborts and Stats.BudgetAborts. It
// aliases budget.ErrOutOfBudget, so errors.Is matches metering aborts
// from any engine.
var ErrOutOfBudget = budget.ErrOutOfBudget

// SetBudgetPolicy installs the engine-wide metering policy; nil disables
// metering (the default). The policy's Grant is sampled once per
// Atomically/AtomicallyRO call — retries spend the same grant — and the
// engine charges it per operation (Costs.Step), per read/write-set entry
// (Costs.Read, Costs.Write), per revalidated entry during timestamp
// extension and commit validation (Costs.Step each), and per aborted
// attempt before the re-run (Costs.Retry). Exhaustion aborts the
// transaction with ErrOutOfBudget. Like the other engine-wide knobs, it
// is meant to be set before concurrent use; in-flight transactions keep
// the grant they started with.
func SetBudgetPolicy(p budget.Policy) { kit.SetBudgetPolicy(p) }

// SetAdmission installs the engine-wide admission gate; nil disables it
// (the default). Admit is called once per update-transaction call, before
// the first attempt — read-only transactions are never gated, since they
// are not the load that collapses under contention. Pair it with
// budget.NewController fed by this engine's ReadStats for abort-ratio-
// driven throttling.
func SetAdmission(a budget.Admitter) { kit.SetAdmission(a) }

// SetContentionProfiler installs (or, with nil, removes) the hot-Var
// contention sketch: every classified abort that can name the Var it
// conflicted on feeds the sketch with that Var's id, so Sketch.Top
// reports where the abort budget is going. Install/remove is safe
// concurrently with running transactions (atomic pointer swap); the
// counts are sampled profiles, not exact ledgers.
func SetContentionProfiler(s *telemetry.Sketch) { kit.SetContentionProfiler(s) }

// Label names this Var in hot-Var contention reports (see
// SetContentionProfiler); containers label their internal Vars with the
// user-visible key. Unlabeled Vars report as var-<id>.
func (v *Var[T]) Label(name string) { kit.Label(v.vid, name) }

// SetLatencySampling enables commit-latency and attempts-per-commit
// sampling for roughly 1 in every update-transaction calls (rounded up
// to a power of two; ≤ 0 disables, 1 samples every call). Engine-wide,
// like the clock strategy knobs.
func SetLatencySampling(every int) { kit.SetLatencySampling(every) }

// LatencyHists returns the engine's sampled commit-latency (µs) and
// attempts-per-commit histograms for snapshotting; they accumulate for
// the life of the process, so renderers should diff snapshots.
func LatencyHists() (commitUS, attempts *loghist.Hist) { return kit.LatencyHists() }

// noteAbort classifies an abort at its site (see enginekit.Desc.NoteAbort);
// v is the Var the attempt conflicted on, nil when no single Var is
// attributable. This form is for the commit path, which must release its
// locks through normal control flow instead of panicking.
func (tx *Tx) noteAbort(reason int, v varBase) {
	var id uint64
	if v != nil {
		id = v.id()
	}
	tx.k.NoteAbort(reason, id)
}

// abortConflict is noteAbort for sites that hold no locks: it classifies
// the abort and unwinds the attempt.
func (tx *Tx) abortConflict(reason int, v varBase) {
	tx.noteAbort(reason, v)
	panic(enginekit.RetrySignal{})
}

// budgetAbort finalizes a metering abort: counted, descriptor recycled,
// sentinel error returned.
func (tx *Tx) budgetAbort() error {
	err := tx.k.BudgetAbort()
	tx.release()
	return err
}
