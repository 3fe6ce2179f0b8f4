package mvstm

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
// Sync points: mvstm fires the full set. syncpoint.GCSweep marks the
// commit-side chain truncation consulting the epoch table (Tx.sweepFloor),
// the point the pinned-snapshot-vs-GC pathology interleaves against. The
// snapshot read's pre-pin-holder wait loop fires syncpoint.SpinWait each
// iteration instead of yielding to the Go scheduler: under the harness
// the lock holder is a parked worker, and only the schedule can run it.
var kit struct {
	enginekit.Kit
	stripes [enginekit.Stripes]statShard
}

func init() {
	kit.Init("mvstm", telemetry.NamespaceMVSTM, func(i int) *enginekit.Counters { return &kit.stripes[i].Counters })
}

// ErrOutOfBudget is returned by Atomically/AtomicallyRO when the
// transaction exhausts the work budget granted by the configured
// BudgetPolicy (see SetBudgetPolicy). The abort is clean: no locks are
// held, the epoch registration is dropped (the GC floor moves on), and
// the pooled descriptor is recycled. It aliases budget.ErrOutOfBudget, so
// errors.Is matches metering aborts from any engine.
var ErrOutOfBudget = budget.ErrOutOfBudget

// SetBudgetPolicy installs the engine-wide metering policy; nil disables
// metering (the default). Grant is sampled once per call (retries spend
// the same grant); the engine charges Costs.Step per operation and per
// version walked by a snapshot read, Costs.Read/Costs.Write per
// read-/write-set entry, Costs.Retry per aborted attempt, and —
// distinctive to this engine — Costs.Version per version retained in the
// chains a commit is about to publish, so the space half of the paper's
// time/space trade is metered too: a transaction pinning an old snapshot
// pays for the chain growth it forces on every writer, and a giant write
// set pays for the versions it appends. Exhaustion aborts with
// ErrOutOfBudget; AtomicallyRO, whose snapshot reads otherwise never
// abort, is the one path a budget can abort.
func SetBudgetPolicy(p budget.Policy) { kit.SetBudgetPolicy(p) }

// SetAdmission installs the engine-wide admission gate; nil disables it
// (the default). Admit is called once per update-transaction call, before
// the first attempt; snapshot (read-only) transactions are never gated.
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
// power of two; ≤ 0 disables, 1 samples every call; snapshot
// transactions always record 1 attempt — they run exactly once).
// Engine-wide, like the clock strategy knobs.
func SetLatencySampling(every int) { kit.SetLatencySampling(every) }

// LatencyHists returns the engine's sampled commit-latency (µs) and
// attempts-per-commit histograms for snapshotting; they accumulate for
// the life of the process, so renderers should diff snapshots.
func LatencyHists() (commitUS, attempts *loghist.Hist) { return kit.LatencyHists() }

// budgetAbort finalizes a metering abort: counted, then finish flushes
// the batched snapshot stats, drops the epoch registration and recycles
// the descriptor, and the sentinel error is returned.
func (tx *Tx) budgetAbort() error {
	err := tx.k.BudgetAbort()
	tx.finish()
	return err
}
