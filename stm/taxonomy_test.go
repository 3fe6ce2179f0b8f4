package stm_test

// Abort-taxonomy tests: the per-class breakdown in Stats.AbortReasons
// must account for every abort exactly once — the conflict classes
// partition Stats.Aborts (minus budget refusals), Budget mirrors
// BudgetAborts, and ExplicitRetry counts user Retry signals. The
// contention-profiler hook is exercised alongside: a skewed workload
// must surface its hot Var in the sketch, labeled.

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/stm"
	"repro/stm/budget"
)

// hammer runs a contended read-modify-write workload over vars and
// returns the engine stats delta it produced.
func hammer(t *testing.T, workers, iters int, vars ...*stm.Var[int]) stm.Stats {
	t.Helper()
	before := stm.ReadStats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := stm.Atomically(func(tx *stm.Tx) error {
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
	return stm.ReadStats().Sub(before)
}

// checkPartition asserts the taxonomy partition invariant on a delta
// from a workload with no Retry calls and no budget policy: every abort
// carries exactly one conflict reason.
func checkPartition(t *testing.T, d stm.Stats) {
	t.Helper()
	r := d.AbortReasons
	conflict := r.ReadCertify + r.CommitValidation + r.LockBusy + r.Extension
	if conflict != d.Aborts {
		t.Fatalf("conflict reasons %+v sum to %d, want Aborts = %d", r, conflict, d.Aborts)
	}
	if r.Budget != 0 || r.ExplicitRetry != 0 {
		t.Fatalf("unmetered no-Retry workload counted Budget=%d ExplicitRetry=%d", r.Budget, r.ExplicitRetry)
	}
	if d.Aborts == 0 {
		t.Log("workload produced no aborts; partition check was vacuous")
	}
}

func TestAbortReasonsPartitionAborts(t *testing.T) {
	v := stm.NewVar(0)
	checkPartition(t, hammer(t, 8, 300, v))
}

func TestAbortReasonsPartitionAbortsTicToc(t *testing.T) {
	withTicToc(t)
	v := stm.NewVar(0)
	checkPartition(t, hammer(t, 8, 300, v))
}

func TestAbortReasonBudgetMirrorsBudgetAborts(t *testing.T) {
	stm.SetBudgetPolicy(budget.Fixed{Limit: 3})
	t.Cleanup(func() { stm.SetBudgetPolicy(nil) })
	vars := make([]*stm.Var[int], 8)
	for i := range vars {
		vars[i] = stm.NewVar(0)
	}
	before := stm.ReadStats()
	refused := 0
	for i := 0; i < 50; i++ {
		err := stm.Atomically(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			return nil
		})
		if errors.Is(err, stm.ErrOutOfBudget) {
			refused++
		}
	}
	d := stm.ReadStats().Sub(before)
	if refused == 0 {
		t.Fatal("limit-3 policy refused nothing")
	}
	if d.AbortReasons.Budget != d.BudgetAborts {
		t.Fatalf("Budget reason = %d, want BudgetAborts = %d", d.AbortReasons.Budget, d.BudgetAborts)
	}
	if d.BudgetAborts != uint64(refused) {
		t.Fatalf("BudgetAborts = %d, want %d refusals", d.BudgetAborts, refused)
	}
}

func TestAbortReasonExplicitRetry(t *testing.T) {
	flag := stm.NewVar(false)
	before := stm.ReadStats()
	done := make(chan error, 1)
	// parked fires once the waiter has committed to calling Retry, which
	// counts ExplicitRetry before blocking — so the wake-up write below
	// cannot race the count away.
	parked := make(chan struct{}, 1)
	go func() {
		done <- stm.Atomically(func(tx *stm.Tx) error {
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
	if err := stm.Atomically(func(tx *stm.Tx) error { flag.Set(tx, true); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	d := stm.ReadStats().Sub(before)
	if d.AbortReasons.ExplicitRetry == 0 {
		t.Fatal("parked Retry not counted in ExplicitRetry")
	}
}

func TestContentionProfilerFindsHotVar(t *testing.T) {
	sk := telemetry.NewSketch(8, 1)
	stm.SetContentionProfiler(sk)
	t.Cleanup(func() { stm.SetContentionProfiler(nil) })
	hot := stm.NewVar(0)
	hot.Label("hot-counter")
	d := hammer(t, 8, 300, hot)
	if d.Aborts == 0 {
		t.Skip("no contention this run; nothing for the sketch to see")
	}
	for _, e := range sk.Top(8) {
		if e.Label == "hot-counter" {
			if e.Count == 0 {
				t.Fatal("hot Var present with zero count")
			}
			return
		}
	}
	t.Fatalf("hot Var missing from sketch top: %+v", sk.Top(8))
}

func TestLatencySampling(t *testing.T) {
	stm.SetLatencySampling(1)
	t.Cleanup(func() { stm.SetLatencySampling(0) })
	lat, att := stm.LatencyHists()
	c0, a0 := lat.Count(), att.Count()
	v := stm.NewVar(0)
	for i := 0; i < 10; i++ {
		if err := stm.Atomically(func(tx *stm.Tx) error { v.Set(tx, v.Get(tx)+1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if lat.Count()-c0 != 10 || att.Count()-a0 != 10 {
		t.Fatalf("sample-every-call recorded %d latencies / %d attempts, want 10 each",
			lat.Count()-c0, att.Count()-a0)
	}
	stm.SetLatencySampling(0)
	if err := stm.Atomically(func(tx *stm.Tx) error { v.Set(tx, v.Get(tx)+1); return nil }); err != nil {
		t.Fatal(err)
	}
	if lat.Count()-c0 != 10 {
		t.Fatal("disabled sampling still recorded")
	}
}
