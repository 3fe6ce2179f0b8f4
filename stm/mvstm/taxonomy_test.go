package mvstm_test

// Abort-taxonomy tests for the multi-version engine: snapshot reads
// cannot fail mid-attempt, so only LockBusy and CommitValidation can
// appear as conflict classes, and they must partition Stats.Aborts;
// Budget mirrors BudgetAborts; the contention profiler must surface the
// hot Var a writer pool fights over.

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/stm/budget"
	"repro/stm/mvstm"
)

func hammer(t *testing.T, workers, iters int, vars ...*mvstm.Var[int]) mvstm.Stats {
	t.Helper()
	before := mvstm.ReadStats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
					for _, v := range vars {
						n := v.Get(tx)
						runtime.Gosched() // let a sibling commit inside the window: contention on any core count
						v.Set(tx, n+1)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return mvstm.ReadStats().Sub(before)
}

func TestAbortReasonsPartitionAborts(t *testing.T) {
	v := mvstm.NewVar(0)
	d := hammer(t, 8, 300, v)
	r := d.AbortReasons
	conflict := r.ReadCertify + r.CommitValidation + r.LockBusy + r.Extension
	if conflict != d.Aborts {
		t.Fatalf("conflict reasons %+v sum to %d, want Aborts = %d", r, conflict, d.Aborts)
	}
	if r.ReadCertify != 0 || r.Extension != 0 {
		t.Fatalf("snapshot engine produced classes it cannot: %+v", r)
	}
	if r.Budget != 0 || r.ExplicitRetry != 0 {
		t.Fatalf("unmetered no-Retry workload counted Budget=%d ExplicitRetry=%d", r.Budget, r.ExplicitRetry)
	}
	if d.Aborts == 0 {
		t.Log("workload produced no aborts; partition check was vacuous")
	}
}

func TestAbortReasonBudgetMirrorsBudgetAborts(t *testing.T) {
	mvstm.SetBudgetPolicy(budget.Fixed{Limit: 3})
	t.Cleanup(func() { mvstm.SetBudgetPolicy(nil) })
	vars := make([]*mvstm.Var[int], 8)
	for i := range vars {
		vars[i] = mvstm.NewVar(0)
	}
	before := mvstm.ReadStats()
	refused := 0
	for i := 0; i < 50; i++ {
		err := mvstm.Atomically(func(tx *mvstm.Tx) error {
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			return nil
		})
		if errors.Is(err, mvstm.ErrOutOfBudget) {
			refused++
		}
	}
	d := mvstm.ReadStats().Sub(before)
	if refused == 0 {
		t.Fatal("limit-3 policy refused nothing")
	}
	if d.AbortReasons.Budget != d.BudgetAborts {
		t.Fatalf("Budget reason = %d, want BudgetAborts = %d", d.AbortReasons.Budget, d.BudgetAborts)
	}
}

func TestAbortReasonExplicitRetry(t *testing.T) {
	flag := mvstm.NewVar(false)
	before := mvstm.ReadStats()
	done := make(chan error, 1)
	// parked fires once the waiter has committed to calling Retry, which
	// counts ExplicitRetry before blocking — so the wake-up write below
	// cannot race the count away.
	parked := make(chan struct{}, 1)
	go func() {
		done <- mvstm.Atomically(func(tx *mvstm.Tx) error {
			if !flag.Get(tx) {
				select {
				case parked <- struct{}{}:
				default:
				}
				tx.Retry()
			}
			return nil
		})
	}()
	<-parked
	if err := mvstm.Atomically(func(tx *mvstm.Tx) error { flag.Set(tx, true); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	d := mvstm.ReadStats().Sub(before)
	if d.AbortReasons.ExplicitRetry == 0 {
		t.Fatal("parked Retry not counted in ExplicitRetry")
	}
}

func TestContentionProfilerFindsHotVar(t *testing.T) {
	sk := telemetry.NewSketch(8, 1)
	mvstm.SetContentionProfiler(sk)
	t.Cleanup(func() { mvstm.SetContentionProfiler(nil) })
	hot := mvstm.NewVar(0)
	hot.Label("mv-hot")
	d := hammer(t, 8, 300, hot)
	if d.Aborts == 0 {
		t.Skip("no contention this run; nothing for the sketch to see")
	}
	for _, e := range sk.Top(8) {
		if e.Label == "mv-hot" {
			return
		}
	}
	t.Fatalf("hot Var missing from sketch top: %+v", sk.Top(8))
}

func TestLatencySampling(t *testing.T) {
	mvstm.SetLatencySampling(1)
	t.Cleanup(func() { mvstm.SetLatencySampling(0) })
	lat, att := mvstm.LatencyHists()
	c0, a0 := lat.Count(), att.Count()
	v := mvstm.NewVar(0)
	for i := 0; i < 10; i++ {
		if err := mvstm.Atomically(func(tx *mvstm.Tx) error { v.Set(tx, v.Get(tx)+1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error { _ = v.Get(tx); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if lat.Count()-c0 != 15 || att.Count()-a0 != 15 {
		t.Fatalf("sample-every-call recorded %d latencies / %d attempts, want 15 each",
			lat.Count()-c0, att.Count()-a0)
	}
}
