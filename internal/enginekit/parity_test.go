package enginekit_test

// Cross-engine parity: the invariants the three engines used to keep in
// three copies of the same code, asserted once over all of them through
// their public entry points and their kits' common snapshot.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/enginekit"
	"repro/stm"
	"repro/stm/budget"
	"repro/stm/mvstm"
	"repro/stm/norecstm"
)

// body is an engine-neutral transaction: get and set address two int
// variables (0 and 1), retry is Tx.Retry.
type body func(get func(int) int, set func(i, v int), retry func())

// engine adapts one engine package to body. run executes b as one update
// transaction under ctx and reports the descriptor every attempt ran on.
type engine struct {
	name string
	run  func(ctx context.Context, b body, seen func(desc any)) error
	// store commits v to variable i in its own transaction.
	store func(i, v int)
}

func engines() []engine {
	sv := [2]*stm.Var[int]{stm.NewVar(0), stm.NewVar(0)}
	nv := [2]*norecstm.Var[int]{norecstm.NewVar(0), norecstm.NewVar(0)}
	mv := [2]*mvstm.Var[int]{mvstm.NewVar(0), mvstm.NewVar(0)}
	return []engine{
		{"stm", func(ctx context.Context, b body, seen func(any)) error {
			return stm.AtomicallyCtx(ctx, func(tx *stm.Tx) error {
				seen(tx)
				b(func(i int) int { return sv[i].Get(tx) }, func(i, v int) { sv[i].Set(tx, v) }, tx.Retry)
				return nil
			})
		}, func(i, v int) {
			_ = stm.Atomically(func(tx *stm.Tx) error { sv[i].Set(tx, v); return nil })
		}},
		{"norecstm", func(ctx context.Context, b body, seen func(any)) error {
			return norecstm.AtomicallyCtx(ctx, func(tx *norecstm.Tx) error {
				seen(tx)
				b(func(i int) int { return nv[i].Get(tx) }, func(i, v int) { nv[i].Set(tx, v) }, tx.Retry)
				return nil
			})
		}, func(i, v int) {
			_ = norecstm.Atomically(func(tx *norecstm.Tx) error { nv[i].Set(tx, v); return nil })
		}},
		{"mvstm", func(ctx context.Context, b body, seen func(any)) error {
			return mvstm.AtomicallyCtx(ctx, func(tx *mvstm.Tx) error {
				seen(tx)
				b(func(i int) int { return mv[i].Get(tx) }, func(i, v int) { mv[i].Set(tx, v) }, tx.Retry)
				return nil
			})
		}, func(i, v int) {
			_ = mvstm.Atomically(func(tx *mvstm.Tx) error { mv[i].Set(tx, v); return nil })
		}},
	}
}

// TestAbortPathsAgreeAcrossEngines drives each engine down the three ways
// a call ends without committing its first attempt — a budget refusal, an
// explicit Retry, a user panic — and checks after each that the budget
// ledger and the taxonomy's Budget class are the same number, that a
// refusal is budget.ErrOutOfBudget, and that the descriptor went back to
// the pool.
func TestAbortPathsAgreeAcrossEngines(t *testing.T) {
	const calls = 64
	scenarios := []struct {
		name string
		// one runs one call of the scenario; it may install a policy on k.
		one func(t *testing.T, e engine, k *enginekit.Kit, seen func(any))
		// check inspects the counter deltas over all calls.
		check func(t *testing.T, d enginekit.Common)
	}{
		{"budget refusal", func(t *testing.T, e engine, k *enginekit.Kit, seen func(any)) {
			k.SetBudgetPolicy(budget.Fixed{Limit: 3}) // unit costs: the second read runs dry
			defer k.SetBudgetPolicy(nil)
			err := e.run(context.Background(), func(get func(int) int, _ func(int, int), _ func()) { get(0); get(1) }, seen)
			if !errors.Is(err, budget.ErrOutOfBudget) {
				t.Fatalf("err = %v, want budget.ErrOutOfBudget", err)
			}
		}, func(t *testing.T, d enginekit.Common) {
			if d.BudgetAborts != calls || d.Aborts != calls || d.Commits != 0 {
				t.Errorf("want %d refused calls, each one abort and no commit: %+v", calls, d)
			}
		}},
		{"explicit retry", func(t *testing.T, e engine, k *enginekit.Kit, seen func(any)) {
			e.store(0, 0)
			parked := k.Common().AbortReasons.ExplicitRetry
			stored := make(chan struct{})
			go func() {
				defer close(stored)
				for k.Common().AbortReasons.ExplicitRetry == parked {
					runtime.Gosched() // until the waiter below has called Retry
				}
				e.store(0, 1)
			}()
			err := e.run(context.Background(), func(get func(int) int, set func(int, int), retry func()) {
				if get(0) == 0 {
					retry()
				}
				set(1, get(0))
			}, seen)
			<-stored // its commit is counted after its write woke the waiter
			if err != nil {
				t.Fatalf("err = %v", err)
			}
		}, func(t *testing.T, d enginekit.Common) {
			// Per call: two stores and the waiter commit, one parked wait —
			// which is a taxonomy entry but not an abort.
			if d.AbortReasons.ExplicitRetry != calls || d.Commits != 3*calls || d.Aborts != 0 {
				t.Errorf("want %d parked waits, %d commits, no aborts: %+v", calls, 3*calls, d)
			}
		}},
		{"user panic", func(t *testing.T, e engine, k *enginekit.Kit, seen func(any)) {
			defer func() {
				if r := recover(); r != "user boom" {
					t.Fatalf("recover() = %v, want the user panic", r)
				}
			}()
			_ = e.run(context.Background(), func(get func(int) int, set func(int, int), _ func()) {
				set(0, get(0)+1)
				panic("user boom")
			}, seen)
		}, func(t *testing.T, d enginekit.Common) {
			if d.Commits != 0 || d.Aborts != 0 {
				t.Errorf("a user panic was counted as an attempt outcome: %+v", d)
			}
		}},
	}
	for _, e := range engines() {
		k := enginekit.ByName(e.name)
		if k == nil {
			t.Fatalf("engine %q registered no kit", e.name)
		}
		for _, sc := range scenarios {
			t.Run(e.name+"/"+sc.name, func(t *testing.T) {
				descs := map[any]bool{}
				before := k.Common()
				for i := 0; i < calls; i++ {
					sc.one(t, e, k, func(d any) { descs[d] = true })
				}
				d := k.Common().Sub(before)
				if d.BudgetAborts != d.AbortReasons.Budget {
					t.Errorf("BudgetAborts = %d but AbortReasons.Budget = %d", d.BudgetAborts, d.AbortReasons.Budget)
				}
				sc.check(t, d)
				// A descriptor that is not released is never handed out
				// again (descs keeps it reachable, so its address is not
				// reused either): a leak on this path shows as one fresh
				// descriptor per call. Nothing tighter holds — the pool is
				// per-P, a GC empties it, and the race detector drops a
				// quarter of the Puts on purpose.
				if len(descs) == calls {
					t.Errorf("%d calls ran on %d distinct descriptors: they are not being recycled", calls, len(descs))
				}
			})
		}
	}
}

// TestParkedRetryReturnsWithinOnePacingCap: a transaction parked in Retry
// that nothing will ever wake returns ctx.Err() promptly once cancelled —
// the kit checks ctx every pacing round, and a round is at most PaceCap.
func TestParkedRetryReturnsWithinOnePacingCap(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				done <- e.run(ctx, func(get func(int) int, _ func(int, int), retry func()) {
					if get(0) == 0 {
						retry()
					}
				}, func(any) {})
			}()
			time.Sleep(30 * time.Millisecond) // well into the capped sleeps
			cancelled := time.Now()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancellation did not unblock the parked Retry")
			}
			// One cap of sleep plus scheduling: two orders of magnitude of
			// slack keep this a pin on the schedule, not a timing test.
			if late := time.Since(cancelled); late > 100*enginekit.PaceCap {
				t.Errorf("returned %v after cancellation; the pacing cap is %v", late, enginekit.PaceCap)
			}
		})
	}
}
