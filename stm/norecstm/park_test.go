package norecstm_test

import (
	"testing"
	"time"

	"repro/stm/norecstm"
)

// TestParkedRetrySleeps pins the pacing of a blocked consumer: parked for
// 100ms it must be well inside the sleeping phase of the kit's schedule
// (four yields, then 1µs doubling to 1ms), not yielding in a loop and
// holding a P at 100% CPU as this engine's own wait loop used to. The
// round a sleeping wait reaches in 100ms is bounded by its sleeps — about
// 110 if every sleep is exact, fewer as timers overshoot — where a wait
// that only yields goes round many thousands of times.
func TestParkedRetrySleeps(t *testing.T) {
	flag := norecstm.NewVar(0)
	done := make(chan int, 1)
	go func() {
		round := -1
		_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
			if flag.Get(tx) == 0 {
				tx.Retry()
			}
			round = norecstm.ParkRound(tx) // the wait that just ended
			return nil
		})
		done <- round
	}()
	time.Sleep(100 * time.Millisecond)
	if err := norecstm.Atomically(func(tx *norecstm.Tx) error { flag.Set(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	select {
	case round := <-done:
		if round < 4 {
			t.Fatalf("parked Retry reached pacing round %d: it never left the yield phase", round)
		}
		if round > 1000 {
			t.Fatalf("parked Retry went through %d pacing rounds in 100ms: it is spinning, not sleeping", round)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the write did not wake the parked Retry")
	}
}
