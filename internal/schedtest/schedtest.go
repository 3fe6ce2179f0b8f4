// Package schedtest is a deterministic interleaving harness for the
// *native* STM engines (repro/stm, repro/stm/norecstm, repro/stm/mvstm):
// the engine-side counterpart of internal/sched's cooperative scheduler
// over simulated memory. Where sched interposes on every primitive of a
// simulated algorithm, schedtest interposes on the handful of sync
// points the engines expose through the test-only hook of
// internal/enginekit (see internal/syncpoint for the point map): a
// worker goroutine running real transactions parks at every hook call,
// and the harness releases exactly one worker at a time according to a
// sched.Policy. An execution is then a pure function of the policy's
// choices, so
//
//   - the adversarial policies (RoundRobin, Replay) and Explore's
//     preemption-bounded enumeration replay verbatim against the real
//     engines (Harness implements sched.Runner), and
//   - race-only pathologies — a writer landing between a reader's
//     certify and its extension, a GC sweep racing a snapshot pin —
//     become deterministic regression tests instead of stress-test
//     lottery tickets.
//
// # Protocol
//
// Register workers with Go, install the harness hook in the engine under
// test (stm.SetSyncHook(h.Hook(), h.Proc()) and friends, exported to
// each engine's test binary), then Run with a policy. Exactly one worker
// runs between parks, so the engine sees a serial-but-interleaved
// execution; the Proc func reports the running worker's id, which the
// engine trace hooks record as the history Proc — making replayed
// histories byte-identical across runs of the same schedule.
//
// # Teardown
//
// A run that exceeds its step limit (or trips a policy error) cannot
// kill parked workers the way sched does: a worker parked inside a
// commit holds real engine locks (a norecstm worker may even hold the
// package-global sequence lock), and killing it would poison the engine
// for every later test in the process. Instead the harness abandons the
// schedule and free-runs: the hook becomes a no-op, every parked worker
// is granted, and the workers complete naturally under the Go scheduler.
// The one exception is SpinWait — a worker spinning on a condition no
// finished sibling will ever produce (a Retry with no future writer)
// would free-run forever, and a spinning worker by construction holds no
// engine locks, so free-running hooks panic a kill sentinel there; the
// engines' panic-safety paths (the same ones the budget tests pin)
// release the descriptor cleanly.
package schedtest

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/syncpoint"
)

// Step is one granted hook park: which worker parked, and at which
// engine sync point. The log of steps is the schedule actually executed,
// in grant order.
type Step struct {
	Worker int
	Point  syncpoint.Point
}

// String renders the step as "w<id>:<point>".
func (s Step) String() string { return fmt.Sprintf("w%d:%s", s.Worker, s.Point) }

// killSentinel unwinds a free-running worker out of an unsatisfiable
// spin wait (see the teardown notes in the package comment).
type killSentinel struct{}

type worker struct {
	id     int
	fn     func()
	grant  chan struct{}
	parked chan struct{}
	done   chan struct{}
	panicv any
}

// Harness coordinates a set of workers running native-engine
// transactions under a deterministic schedule. A Harness is one-shot:
// build a fresh one per Run (ExploreRunner's build func does exactly
// that). It implements sched.Runner.
type Harness struct {
	ws []*worker
	// cur is the id of the worker currently holding the grant; the hook
	// reads it to identify its caller (exactly one worker runs at a
	// time). Atomic only because free-running workers may still consult
	// it through Proc after abandonment.
	cur atomic.Int64
	// released flips the hook into free-run mode during abandonment.
	released  atomic.Bool
	stepLimit uint64
	log       []Step
	picks     []int
	ran       bool
}

// New returns an empty harness.
func New() *Harness { return &Harness{} }

// Go registers fn as a worker and returns its id (assigned in
// registration order, starting at 0). Schedules name workers by these
// ids. fn runs real engine transactions; it must not spawn goroutines of
// its own that touch the engine.
func (h *Harness) Go(fn func()) int {
	w := &worker{
		id:     len(h.ws),
		fn:     fn,
		grant:  make(chan struct{}),
		parked: make(chan struct{}),
		done:   make(chan struct{}),
	}
	h.ws = append(h.ws, w)
	return w.id
}

// SetStepLimit bounds the next Run's granted steps (0 means the default
// of 1 million); exceeding it abandons the schedule and returns an error
// wrapping sched.ErrStepLimit, as sched.Runner requires.
func (h *Harness) SetStepLimit(n uint64) { h.stepLimit = n }

// Hook returns the engine sync-point callback to install via the engine's
// SetSyncHook test export. It parks the calling worker until the
// schedule grants it.
func (h *Harness) Hook() func(syncpoint.Point) { return h.hook }

// Proc returns the worker-id source to install alongside Hook: it
// reports the id of the worker currently holding the grant, which the
// engine trace hooks record as the history Proc.
func (h *Harness) Proc() func() int { return h.proc }

// Log returns the executed parks: one Step per hook call, in grant
// order. Valid after Run returns; the log of an abandoned run covers
// only the scheduled prefix.
func (h *Harness) Log() []Step { return append([]Step(nil), h.log...) }

// Schedule returns the full pick sequence of the run — every grant,
// including the final grant that lets a worker run from its last park to
// completion. Those completion grants never reach a hook, so they are
// absent from Log; a replay built from Log alone diverges (the original
// run let a worker finish and release its locks mid-schedule, the
// truncated replay never does). Feed Schedule, not Log, to
// sched.NewReplay.
func (h *Harness) Schedule() []int { return append([]int(nil), h.picks...) }

// Count reports how many times worker has parked at point so far. It is
// stable while a Pick is in progress (exactly one worker runs between
// parks), which makes it the natural phase variable for scripted
// policies: "run the reader until it has certified once, then run the
// writer to completion".
func (h *Harness) Count(worker int, p syncpoint.Point) int {
	n := 0
	for _, s := range h.log {
		if s.Worker == worker && s.Point == p {
			n++
		}
	}
	return n
}

// PolicyFunc adapts a pick function to sched.Policy, for test-local
// scripted schedules (typically closing over the Harness and phasing on
// Count). The zero Label reports as "scripted".
type PolicyFunc struct {
	Label  string
	PickFn func(runnable []int, step uint64) int
}

// Name implements sched.Policy.
func (p *PolicyFunc) Name() string {
	if p.Label == "" {
		return "scripted"
	}
	return p.Label
}

// Pick implements sched.Policy.
func (p *PolicyFunc) Pick(runnable []int, step uint64) int { return p.PickFn(runnable, step) }

func (h *Harness) proc() int { return int(h.cur.Load()) }

func (h *Harness) hook(p syncpoint.Point) {
	if h.released.Load() {
		if p == syncpoint.SpinWait {
			// Free-running, and spinning on a condition only the Go
			// scheduler's mercy could satisfy: unwind (spin waits hold no
			// engine locks; the engine's panic path recycles the
			// descriptor).
			panic(killSentinel{})
		}
		return
	}
	id := int(h.cur.Load())
	h.log = append(h.log, Step{Worker: id, Point: p})
	w := h.ws[id]
	w.parked <- struct{}{}
	<-w.grant
}

// Run executes all registered workers to completion under the policy,
// granting one park at a time. The policy sees the same runnable-set /
// pick protocol as sched.Scheduler.Run, so RoundRobin, Replay and
// Explore's guided policy work unchanged. Returns an error wrapping
// sched.ErrStepLimit if the schedule exceeds the step budget, and
// surfaces worker panics as errors. One-shot: a second Run errors.
func (h *Harness) Run(policy sched.Policy) error {
	if h.ran {
		return errors.New("schedtest: Harness is one-shot; build a fresh one per Run")
	}
	h.ran = true
	ws := h.ws
	if len(ws) == 0 {
		return nil
	}
	limit := h.stepLimit
	if limit == 0 {
		limit = 1_000_000
	}
	for _, w := range ws {
		go func() {
			defer func() {
				w.panicv = recover()
				close(w.done)
			}()
			// Park once before running so no engine code executes until
			// the schedule grants the first step.
			w.parked <- struct{}{}
			<-w.grant
			w.fn()
		}()
	}
	parked := make([]bool, len(ws))
	for _, w := range ws {
		<-w.parked
		parked[w.id] = true
	}
	finished := 0
	var steps uint64
	runnable := make([]int, 0, len(ws))
	for finished < len(ws) {
		if steps >= limit {
			h.abandon(parked)
			return fmt.Errorf("schedtest: %w (limit %d, policy %s)", sched.ErrStepLimit, limit, policy.Name())
		}
		runnable = runnable[:0]
		for _, w := range ws {
			if parked[w.id] {
				runnable = append(runnable, w.id)
			}
		}
		if len(runnable) == 0 {
			return errors.New("schedtest: no runnable worker (internal error)")
		}
		pick := policy.Pick(runnable, steps)
		if pick < 0 || pick >= len(ws) || !parked[pick] {
			h.abandon(parked)
			return fmt.Errorf("schedtest: policy %s picked non-runnable worker %d", policy.Name(), pick)
		}
		parked[pick] = false
		steps++
		h.picks = append(h.picks, pick)
		w := ws[pick]
		h.cur.Store(int64(pick))
		w.grant <- struct{}{}
		select {
		case <-w.parked:
			parked[pick] = true
		case <-w.done:
			finished++
			if w.panicv != nil {
				h.abandon(parked)
				return fmt.Errorf("schedtest: worker %d panicked: %v", w.id, w.panicv)
			}
		}
	}
	return nil
}

// abandon gives up on the schedule without killing anyone: flip the hook
// into free-run mode, grant every parked worker, and wait for them to
// complete naturally (see the teardown notes in the package comment).
// On return every worker goroutine has exited and no engine locks are
// held.
func (h *Harness) abandon(parked []bool) {
	h.released.Store(true)
	for _, w := range h.ws {
		if parked[w.id] {
			w.grant <- struct{}{}
		}
	}
	for _, w := range h.ws {
		if parked[w.id] {
			<-w.done
		}
	}
}
