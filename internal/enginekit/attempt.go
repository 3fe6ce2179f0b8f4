package enginekit

import (
	"context"
	"runtime"
	"time"

	"repro/internal/syncpoint"
)

// RetrySignal aborts the current attempt for an immediate re-run; the
// engines panic it from conflict sites that hold no locks.
type RetrySignal struct{}

// WaitSignal is panicked by Retry: the transaction re-runs only after
// one of the variables it read has changed.
type WaitSignal struct{}

// Ctl is how an attempt's user function ended.
type Ctl int

const (
	CtlOK        Ctl = iota // returned normally; err is the user's
	CtlRetryNow             // RetrySignal: a conflict, re-run now
	CtlRetryWait            // WaitSignal: park, then re-run
	CtlBudget               // BudgetSignal: the grant ran dry
)

// RunAttempt executes one attempt of fn on the engine's descriptor,
// translating the panic-based abort signals into control flow. Unknown
// panics propagate.
func RunAttempt[T any](tx *T, fn func(*T) error) (err error, ctl Ctl) {
	defer func() {
		switch r := recover(); r.(type) {
		case nil:
		case RetrySignal:
			ctl = CtlRetryNow
		case WaitSignal:
			ctl = CtlRetryWait
		case BudgetSignal:
			ctl = CtlBudget
		default:
			panic(r)
		}
	}()
	return fn(tx), CtlOK
}

// OrElse runs f and, if f blocks via Retry, rolls its writes back and
// runs g instead. save captures the engine's write set (values included)
// before f runs and returns the function that reinstates it — overwrites
// of entries buffered before the branch are undone too. f's reads stay
// in the read set, both for commit-time validation and so a wake-up on
// anything f read re-runs the transaction, as Retry semantics require.
// Only Retry falls through to g: conflict aborts and foreign panics
// propagate, and an error from f is returned with f's writes still
// buffered, exactly as if f's body had been inlined.
func OrElse[T any](tx *T, f, g func(*T) error, save func() (restore func())) error {
	restore := save()
	err, blocked := attemptBranch(tx, f)
	if !blocked {
		return err
	}
	restore()
	return g(tx)
}

func attemptBranch[T any](tx *T, f func(*T) error) (err error, blocked bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(WaitSignal); !ok {
				panic(r)
			}
			blocked = true
		}
	}()
	return f(tx), false
}

// Pacing of a parked Retry: the first paceYields rounds only yield (a
// producer is often about to commit), then the poll interval starts at
// 1µs and doubles up to PaceCap, so a long wait costs almost nothing and
// a wake-up or a cancellation is seen within one cap.
const (
	paceYields = 4
	PaceCap    = time.Millisecond
)

// PaceSleep is the pause after the given zero-based pacing round: 0
// means yield the processor, anything else is a sleep.
func PaceSleep(round int) time.Duration {
	if round < paceYields {
		return 0
	}
	return min(time.Microsecond<<min(round-paceYields, 10), PaceCap)
}

// Park blocks a transaction parked by Retry until changed reports that
// something it read has a new value, or until ctx (if any) is done — the
// caller's loop turns that into a clean cancellation abort. ctx is
// checked every round. Under the scheduling harness a sleeping worker
// would stall the whole schedule, so each round hands control back at
// syncpoint.SpinWait instead and the schedule can grant the writer this
// wait is waiting for.
func (d *Desc) Park(ctx context.Context, changed func() bool) {
	for d.round = 0; !changed(); d.round++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		if d.SyncSpin() {
			continue
		}
		if pause := PaceSleep(d.round); pause == 0 {
			runtime.Gosched()
		} else {
			time.Sleep(pause)
		}
	}
}

// ParkRound is the pacing round the descriptor's current or most recent
// Park reached; paceYields and above means it went to sleep.
func (d *Desc) ParkRound() int { return d.round }

// SyncAt fires the scheduling-harness hook, if this call picked one up.
func (d *Desc) SyncAt(p syncpoint.Point) {
	if d.flags&flagSync != 0 {
		d.kit.syncHook(p)
	}
}

// SyncSpin hands control back to the harness from a wait loop. It
// reports whether a hook is installed, so callers skip the yield or
// sleep that would otherwise pace the spin.
func (d *Desc) SyncSpin() bool {
	if d.flags&flagSync == 0 {
		return false
	}
	d.kit.syncHook(syncpoint.SpinWait)
	return true
}

// SetSyncHook installs (or, with nil, removes) the scheduling hook and
// the source of the harness worker id traced as the history Proc.
// Test-only (the engines reach it from export_test.go): call it with no
// transaction in flight, and run none outside the harness while a hook
// is set — every call that begins meanwhile picks it up.
func (k *Kit) SetSyncHook(h func(syncpoint.Point), proc func() int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.syncHook, k.syncProc = h, proc
	k.setFlag(flagSync, h != nil)
}
