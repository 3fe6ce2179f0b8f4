package norecstm

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
//
// Sync points: NOrec has no clock, so syncpoint.PreClockStamp never fires
// here, and no per-variable metadata, so neither does syncpoint.GCSweep.
// The spin loops that wait out a committing writer (begin, validate,
// readRO) fire syncpoint.SpinWait each iteration instead of yielding to
// the Go scheduler: under the harness the committing writer is a parked
// worker, and only the schedule can run it.
var kit struct {
	enginekit.Kit
	stripes [enginekit.Stripes]statShard
}

func init() {
	kit.Init("norecstm", telemetry.NamespaceNOrec, func(i int) *enginekit.Counters { return &kit.stripes[i].Counters })
}

// ErrOutOfBudget is returned by Atomically/AtomicallyRO when the
// transaction exhausts the work budget granted by the configured
// BudgetPolicy (see SetBudgetPolicy). It aliases budget.ErrOutOfBudget,
// so errors.Is matches metering aborts from any engine.
var ErrOutOfBudget = budget.ErrOutOfBudget

// SetBudgetPolicy installs the engine-wide metering policy; nil disables
// metering (the default). Grant is sampled once per call (retries spend
// the same grant); the engine charges Costs.Step per operation and per
// entry rescanned by a value-revalidation pass — NOrec's Θ(|read set|)
// conflict cost, which is exactly the resource a hostile long reader
// burns — Costs.Read/Costs.Write per read-/write-set entry, and
// Costs.Retry per aborted attempt. Exhaustion aborts with ErrOutOfBudget.
func SetBudgetPolicy(p budget.Policy) { kit.SetBudgetPolicy(p) }

// SetAdmission installs the engine-wide admission gate; nil disables it
// (the default). Admit is called once per update-transaction call, before
// the first attempt; read-only transactions are never gated.
func SetAdmission(a budget.Admitter) { kit.SetAdmission(a) }

// SetContentionProfiler installs (or, with nil, removes) the hot-Var
// contention sketch: every classified abort that can name the Var it
// conflicted on feeds the sketch with that Var's id, so Sketch.Top
// reports where the abort budget is going. Install/remove is safe
// concurrently with running transactions (atomic pointer swap).
func SetContentionProfiler(s *telemetry.Sketch) { kit.SetContentionProfiler(s) }

// Label names this Var in hot-Var contention reports (see
// SetContentionProfiler). Unlabeled Vars report as var-<id>.
func (v *Var[T]) Label(name string) { kit.Label(v.vid, name) }

// SetLatencySampling enables commit-latency and attempts-per-commit
// sampling for roughly 1 in every transaction calls (rounded up to a
// power of two; ≤ 0 disables, 1 samples every call). Engine-wide.
func SetLatencySampling(every int) { kit.SetLatencySampling(every) }

// LatencyHists returns the engine's sampled commit-latency (µs) and
// attempts-per-commit histograms for snapshotting; they accumulate for
// the life of the process, so renderers should diff snapshots.
func LatencyHists() (commitUS, attempts *loghist.Hist) { return kit.LatencyHists() }

// abortConflict classifies an abort at its site (see
// enginekit.Desc.NoteAbort; v is the overwritten read's Var) and unwinds
// the attempt via RetrySignal. From the read path it reaches
// RunAttempt's recover; from the commit CAS loop (where validate runs
// with the sequence lock not held) it reaches commit's own recover, which
// turns it into a failed commit.
func (tx *Tx) abortConflict(reason int, v varBase) {
	tx.k.NoteAbort(reason, v.id())
	panic(enginekit.RetrySignal{})
}

// budgetAbort finalizes a metering abort: counted, descriptor recycled,
// sentinel error returned. The exhausting charge can surface inside
// commit (validate runs in the sequence-CAS loop), where commit's recover
// translates it into a failed commit — the engine holds no lock there,
// since validate only runs after a failed CAS.
func (tx *Tx) budgetAbort() error {
	err := tx.k.BudgetAbort()
	tx.release()
	return err
}
