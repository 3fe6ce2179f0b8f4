// Package progressivetm is the public face of the reproduction of
// Kuznetsov & Ravi, "Progressive Transactional Memory in Time and Space"
// (PACT 2015). It re-exports the building blocks a user needs to
//
//   - run TM algorithms (irtm, tl2, norec, vrtm, sgltm, mvtm, …) on the
//     instrumented shared-memory simulator and measure steps, distinct base
//     objects and RMRs (internal/memory, internal/tm/*),
//   - construct the paper's executions (Lemma 2, Claim 4) and check
//     histories against opacity, strict serializability and the progress
//     conditions (internal/core, internal/check),
//   - build mutual exclusion from a strongly progressive TM (Algorithm 1)
//     and compare its RMR complexity with classic spin locks
//     (internal/mutex), and
//   - regenerate every experiment in DESIGN.md's per-experiment index
//     (internal/exp).
//
// For writing concurrent Go programs with transactions (the adoptable
// library rather than the research instrument), see the sibling package
// repro/stm and its containers (Map, OrderedMap, Queue). README.md is the
// guided tour; DESIGN.md holds the per-experiment index and the
// engine's soundness arguments.
package progressivetm

import (
	"io"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/memory"
	"repro/internal/mutex"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/tmreg"
)

// Core model types, re-exported for users of the simulated framework.
type (
	// Memory is the simulated shared memory (see internal/memory).
	Memory = memory.Memory
	// Proc is a process handle applying primitives to a Memory.
	Proc = memory.Proc
	// Span attributes steps/RMRs/objects to a labelled code region.
	Span = memory.Span
	// CacheModel classifies accesses as local or RMR.
	CacheModel = memory.Model
	// TM is the transactional memory interface of the paper's model.
	TM = tm.TM
	// Txn is a live transaction.
	Txn = tm.Txn
	// Props is the TM property lattice (opacity, DAP, progressiveness...).
	Props = tm.Props
	// History is a recorded TM history.
	History = tm.History
	// Recorder wraps a TM and records its history.
	Recorder = tm.Recorder
	// Lock is a mutual exclusion object over simulated memory.
	Lock = mutex.Lock
	// Scheduler deterministically interleaves processes.
	Scheduler = sched.Scheduler
)

// ErrAborted is the A_k response: the transaction aborted.
var ErrAborted = tm.ErrAborted

// NewMemory creates a simulated shared memory for nprocs processes under
// the named cache model ("cc-wt", "cc-wb", "dsm"), or without RMR
// accounting when model is "".
func NewMemory(nprocs int, model string) *Memory {
	if model == "" {
		return memory.New(nprocs, nil)
	}
	m := memory.ModelByName(model)
	if m == nil {
		return nil
	}
	return memory.New(nprocs, m)
}

// CacheModels lists the cache model names ("cc-wt", "cc-wb", "dsm").
func CacheModels() []string { return exp.DefaultParams().Models }

// Algorithms lists the available TM algorithm names.
func Algorithms() []string { return tmreg.Names() }

// NewTM builds the named TM algorithm over nobj t-objects on mem.
func NewTM(name string, mem *Memory, nobj int) (TM, error) {
	return tmreg.New(name, mem, nobj)
}

// Record wraps a TM so its history can be checked afterwards.
func Record(t TM) *Recorder { return tm.Record(t) }

// Atomically retries body until a transaction of t commits.
func Atomically(t TM, p *Proc, body func(Txn) error) error {
	return tm.Atomically(t, p, body)
}

// NewScheduler creates a deterministic cooperative scheduler over mem.
func NewScheduler(mem *Memory) *Scheduler { return sched.New(mem) }

// RandomPolicy returns a seeded random scheduling policy.
func RandomPolicy(seed int64) sched.Policy { return sched.NewRandom(seed) }

// Locks lists the mutual-exclusion algorithms, including "lm:<tm>" for
// Algorithm 1 over each strongly progressive TM.
func Locks() []string { return exp.LockNames() }

// NewLock builds the named lock over mem.
func NewLock(name string, mem *Memory) (Lock, error) { return exp.NewLock(name, mem) }

// NewLM builds the paper's Algorithm 1 mutex from a strictly serializable,
// strongly progressive TM that accesses a single t-object.
func NewLM(mem *Memory, t TM) *mutex.LM { return mutex.NewLM(mem, t) }

// History checkers (internal/check).

// IsStrictlySerializable reports whether the committed transactions of h
// admit a legal serialization respecting real-time order.
func IsStrictlySerializable(h *History) bool { return check.StrictlySerializable(h).OK }

// IsOpaque reports whether all transactions of h (including aborted ones)
// admit a single legal serialization respecting real-time order.
func IsOpaque(h *History) bool { return check.Opaque(h).OK }

// ProgressivenessViolations lists aborts that had no concurrent conflict.
func ProgressivenessViolations(h *History) []check.ProgressViolation {
	return check.Progressive(h)
}

// Paper constructions (internal/core).

// Lemma2 builds the execution π^{i−1}·ρ^i·α_i of Figure 1 for the named TM.
func Lemma2(tmName string, i int) (core.Lemma2Result, error) { return core.Lemma2(tmName, i) }

// Claim4 builds the execution π^{i−1}·β^ℓ·ρ^i·α^i_j for the named TM.
func Claim4(tmName string, i, l int) (core.Claim4Outcome, error) { return core.Claim4(tmName, i, l) }

// Experiments (internal/exp); see DESIGN.md's per-experiment index.

// Params is the parameter set every experiment reads; each takes the
// fields its Experiment.Uses names.
type Params = exp.Params

// Experiment is one registered experiment: name, artifact, table title,
// native benchmark and runner.
type Experiment = exp.Experiment

// DefaultParams is every TM, lock and cache model at the committed
// tables' sizes; narrow it before passing it to RunExperiment.
func DefaultParams() Params { return exp.DefaultParams() }

// Experiments lists the registered experiments in table order (E8, which
// drives the native engines, is registered by cmd/tmbench alone).
func Experiments() []Experiment { return exp.All() }

// RunExperiment prints the named experiment's tables to w, exactly as
// `tmbench -exp name` does; "all" runs the default sweep.
func RunExperiment(w io.Writer, name string, p Params) error { return exp.Run(w, name, p) }
